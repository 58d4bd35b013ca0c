"""The on-disk B-tree backing cluster-key indexes in ``storage=disk``.

Entries are ``(key, seq, row_position)`` ordered by ``(key, seq)``,
where ``seq`` is a per-index monotone insertion counter. Because every
new entry gets a larger ``seq`` than every existing one, ordering by
``(key, seq)`` reproduces the in-memory :class:`~repro.minidb.index.
SortedIndex` semantics exactly: new entries land *after* existing equal
keys (``bisect_right``), and a bulk build keyed by a stable sort keeps
input order among equals. Range scans therefore yield byte-identical
position sequences in both storage modes.

Nodes copy-on-write: a page referenced by the current on-disk manifest
is never mutated in place — the first touch after a checkpoint clones it
to a freshly allocated page id and retires the old one (reusable after
the next checkpoint). Pages already private (allocated since the last
checkpoint) are mutated in place, so a burst of inserts pays one clone
per touched path, not one per entry. Crash recovery never needs to undo
anything: the manifest's root still describes the checkpoint tree, and
the WAL replays the logical inserts on top of it.

There are no sibling pointers (they would force COW cascades along the
leaf level); range scans carry an explicit ancestor stack instead. All
node access goes through the buffer pool, with the descent path pinned
so eviction cannot drop a node mid-split.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterable, Iterator

from repro.errors import StorageError
from repro.minidb.index import IndexRange, SortedIndex
from repro.minidb.storage.page import (
    KIND_BTREE_INNER,
    KIND_BTREE_LEAF,
    SLOT_SIZE,
    cell_capacity,
    cells_size,
)
from repro.minidb.storage.serde import (
    decode_value,
    encode_value,
    read_varint,
    varint_length,
    write_varint,
)

__all__ = ["BTreeBackedIndex", "DiskBTree", "LeafNode", "InnerNode"]


def _encode_entry(key: Any, seq: int, position: int) -> bytes:
    out = bytearray()
    encode_value(out, key)
    write_varint(out, seq)
    write_varint(out, position)
    return bytes(out)


def _encode_separator(child: int, key: Any, seq: int) -> bytes:
    out = bytearray()
    write_varint(out, child)
    encode_value(out, key)
    write_varint(out, seq)
    return bytes(out)


class LeafNode:
    """Decoded leaf: parallel entry arrays, the entries' encoded cells,
    and their byte size.

    ``cells[i]`` is the stored form of entry *i*. Keeping it means a
    decode never re-encodes anything to learn ``nbytes``, and writing a
    leaf back after one insert encodes one entry, not all of them.
    """

    __slots__ = ("keys", "seqs", "positions", "cells", "nbytes")

    def __init__(self, keys: list, seqs: list[int], positions: list[int],
                 cells: list[bytes]) -> None:
        self.keys = keys
        self.seqs = seqs
        self.positions = positions
        self.cells = cells
        self.nbytes = cells_size(cells)

    def clone(self) -> "LeafNode":
        return LeafNode(list(self.keys), list(self.seqs),
                        list(self.positions), list(self.cells))

    def insert(self, slot: int, key: Any, seq: int, position: int) -> None:
        cell = _encode_entry(key, seq, position)
        self.keys.insert(slot, key)
        self.seqs.insert(slot, seq)
        self.positions.insert(slot, position)
        self.cells.insert(slot, cell)
        self.nbytes += len(cell) + SLOT_SIZE

    def split(self) -> "LeafNode":
        """Move the upper half of the entries to a new right sibling."""
        mid = len(self.keys) // 2
        right = LeafNode(self.keys[mid:], self.seqs[mid:],
                         self.positions[mid:], self.cells[mid:])
        del self.keys[mid:]
        del self.seqs[mid:]
        del self.positions[mid:]
        del self.cells[mid:]
        self.nbytes -= right.nbytes
        return right

    def encode_cells(self) -> tuple[int, list[bytes]]:
        return KIND_BTREE_LEAF, self.cells

    @classmethod
    def from_cells(cls, cells: list[bytes]) -> "LeafNode":
        keys: list = []
        seqs: list[int] = []
        positions: list[int] = []
        for cell in cells:
            key, offset = decode_value(cell, 0)
            seq, offset = read_varint(cell, offset)
            position, _ = read_varint(cell, offset)
            keys.append(key)
            seqs.append(seq)
            positions.append(position)
        return cls(keys, seqs, positions, cells)


class InnerNode:
    """Decoded internal node: child page ids and (key, seq) separators.

    ``seps[i]`` is the smallest entry in the subtree of
    ``children[i + 1]``; descent for a probe ``(key, seq)`` picks the
    child whose separator run covers it.

    ``nbytes`` is kept exact under every mutation (child ids included —
    copy-on-write and compaction change them, and a varint can change
    length), so a node that stayed resident splits exactly when the same
    node evicted and re-read would.
    """

    __slots__ = ("children", "sep_keys", "sep_seqs", "nbytes")

    def __init__(self, children: list[int], sep_keys: list,
                 sep_seqs: list[int], nbytes: int | None = None) -> None:
        self.children = children
        self.sep_keys = sep_keys
        self.sep_seqs = sep_seqs
        self.nbytes = (cells_size(self.encode_cells()[1])
                       if nbytes is None else nbytes)

    def clone(self) -> "InnerNode":
        return InnerNode(list(self.children), list(self.sep_keys),
                         list(self.sep_seqs), self.nbytes)

    def set_child(self, index: int, child: int) -> None:
        self.nbytes += (varint_length(child)
                        - varint_length(self.children[index]))
        self.children[index] = child

    def insert_separator(self, index: int, child: int, key: Any,
                         seq: int) -> None:
        """Insert *child* after ``children[index]``, led by (key, seq)."""
        self.children.insert(index + 1, child)
        self.sep_keys.insert(index, key)
        self.sep_seqs.insert(index, seq)
        self.nbytes += len(_encode_separator(child, key, seq)) + SLOT_SIZE

    def split(self) -> tuple["InnerNode", Any, int]:
        """Move the upper half to a new right sibling; returns it with
        the (key, seq) separator promoted to the parent."""
        mid = len(self.sep_keys) // 2
        sep_key = self.sep_keys[mid]
        sep_seq = self.sep_seqs[mid]
        right = InnerNode(self.children[mid + 1:], self.sep_keys[mid + 1:],
                          self.sep_seqs[mid + 1:])
        # The promoted separator's cell leaves this node whole; its
        # child pointer reappears as the right node's leftmost cell.
        promoted = _encode_separator(right.children[0], sep_key, sep_seq)
        self.nbytes -= (right.nbytes - varint_length(right.children[0])
                        + len(promoted))
        del self.children[mid + 1:]
        del self.sep_keys[mid:]
        del self.sep_seqs[mid:]
        return right, sep_key, sep_seq

    def encode_cells(self) -> tuple[int, list[bytes]]:
        first = bytearray()
        write_varint(first, self.children[0])
        cells = [bytes(first)]
        cells.extend(map(_encode_separator, self.children[1:],
                         self.sep_keys, self.sep_seqs))
        return KIND_BTREE_INNER, cells

    @classmethod
    def from_cells(cls, cells: list[bytes]) -> "InnerNode":
        child0, _ = read_varint(cells[0], 0)
        children = [child0]
        sep_keys: list = []
        sep_seqs: list[int] = []
        for cell in cells[1:]:
            child, offset = read_varint(cell, 0)
            key, offset = decode_value(cell, offset)
            seq, _ = read_varint(cell, offset)
            children.append(child)
            sep_keys.append(key)
            sep_seqs.append(seq)
        return cls(children, sep_keys, sep_seqs, cells_size(cells))


class DiskBTree:
    """A copy-on-write B-tree of ``(key, seq, position)`` entries.

    *storage* provides page services: ``pager`` (the buffer pool),
    ``allocate_page()``, ``free_page(id)`` and ``page_shadowed(id)``
    (whether the current manifest references the page, forcing COW).
    """

    def __init__(self, storage: Any, root: int | None = None,
                 entry_count: int = 0, next_seq: int = 0,
                 pages: Iterable[int] = ()) -> None:
        self.storage = storage
        self.root = root
        self.entry_count = entry_count
        self.next_seq = next_seq
        #: Every live page id of this tree (kept in memory so manifests
        #: and frees never need a disk walk).
        self.pages: set[int] = set(pages)

    def __len__(self) -> int:
        return self.entry_count

    # -- page plumbing --------------------------------------------------

    def _fetch(self, page_id: int) -> Any:
        return self.storage.pager.fetch(page_id)

    def _adopt(self, node: Any) -> int:
        page_id = self.storage.allocate_page()
        self.storage.pager.adopt(page_id, node)
        self.pages.add(page_id)
        return page_id

    def _free(self, page_id: int) -> None:
        self.pages.discard(page_id)
        self.storage.free_page(page_id)

    def _capacity(self) -> int:
        return cell_capacity(self.storage.pager.page_size)

    def _shadow(self, page_id: int, node: Any) -> tuple[int, Any]:
        """A mutable (id, node) for the page, cloning when shadowed."""
        if not self.storage.page_shadowed(page_id):
            self.storage.pager.mark_dirty(page_id)
            return page_id, node
        clone = node.clone()
        new_id = self._adopt(clone)
        self._free(page_id)
        return new_id, clone

    # -- mutation -------------------------------------------------------

    def insert(self, key: Any, position: int) -> None:
        """Insert one entry (NULL keys are the caller's concern)."""
        seq = self.next_seq
        self.next_seq += 1
        self.entry_count += 1
        if self.root is None:
            root = LeafNode([key], [seq], [position],
                            [_encode_entry(key, seq, position)])
            self.root = self._adopt(root)
            return
        self._insert_entry(key, seq, position)

    def insert_many(self, pairs: Iterable[tuple[Any, int]]) -> None:
        for key, position in pairs:
            self.insert(key, position)

    def _insert_entry(self, key: Any, seq: int, position: int) -> None:
        pager = self.storage.pager
        pinned: list[int] = []
        try:
            # Descend to the rightmost leaf that can hold (key, seq),
            # COW-ing the path top-down so parent links stay correct.
            node_id = self.root
            node = self._fetch(node_id)
            node_id, node = self._shadow(node_id, node)
            self.root = node_id
            pager.pin(node_id)
            pinned.append(node_id)
            path: list[tuple[InnerNode, int]] = []
            while isinstance(node, InnerNode):
                child_idx = self._descend_index(node, key, seq)
                child_id = node.children[child_idx]
                child = self._fetch(child_id)
                child_id, child = self._shadow(child_id, child)
                node.set_child(child_idx, child_id)
                pager.pin(child_id)
                pinned.append(child_id)
                path.append((node, child_idx))
                node = child
                node_id = child_id
            # Equal keys always land after existing ones: seq is larger
            # than every stored seq, and descent already picked the
            # rightmost candidate leaf.
            node.insert(bisect.bisect_right(node.keys, key), key, seq,
                        position)
            self._split_upward(node_id, node, path, pinned)
        finally:
            for page_id in pinned:
                pager.unpin(page_id)

    @staticmethod
    def _descend_index(node: InnerNode, key: Any, seq: int) -> int:
        """Child index whose subtree covers the probe ``(key, seq)``."""
        lo, hi = 0, len(node.sep_keys)
        while lo < hi:
            mid = (lo + hi) // 2
            if (node.sep_keys[mid], node.sep_seqs[mid]) <= (key, seq):
                lo = mid + 1
            else:
                hi = mid
        return lo

    def _split_upward(self, node_id: int, node: Any,
                      path: list[tuple[InnerNode, int]],
                      pinned: list[int]) -> None:
        capacity = self._capacity()
        pager = self.storage.pager
        while node.nbytes > capacity:
            if isinstance(node, LeafNode):
                right = node.split()
                sep_key = right.keys[0]
                sep_seq = right.seqs[0]
            else:
                right, sep_key, sep_seq = node.split()
            right_id = self._adopt(right)
            pager.pin(right_id)
            pinned.append(right_id)
            if path:
                parent, child_idx = path.pop()
                parent.insert_separator(child_idx, right_id, sep_key,
                                        sep_seq)
                node = parent
                node_id = self._parent_id(parent, path)
            else:
                new_root = InnerNode([node_id, right_id], [sep_key],
                                     [sep_seq])
                self.root = self._adopt(new_root)
                pager.pin(self.root)
                pinned.append(self.root)
                return

    def _parent_id(self, parent: InnerNode,
                   path: list[tuple[InnerNode, int]]) -> int:
        if path:
            grand, idx = path[-1]
            return grand.children[idx]
        return self.root

    def build(self, keyed_positions: Iterable[tuple[Any, int]]) -> None:
        """(Re)build from scratch; equals keep input (position) order."""
        for page_id in list(self.pages):
            self.storage.pager.discard(page_id)
            self._free(page_id)
        self.root = None
        self.entry_count = 0
        pairs = sorted(
            (pair for pair in keyed_positions if pair[0] is not None),
            key=lambda pair: pair[0])
        if not pairs:
            return
        base = self.next_seq
        entries = [(key, base + index, position)
                   for index, (key, position) in enumerate(pairs)]
        self.next_seq = base + len(entries)
        self.entry_count = len(entries)
        self._bulk_build(entries)

    def _bulk_build(self, entries: list[tuple[Any, int, int]]) -> None:
        capacity = self._capacity()
        # Pack leaves to ~90% so trickle inserts do not split instantly.
        budget = max(SLOT_SIZE * 4, (capacity * 9) // 10)
        level: list[tuple[int, Any, int]] = []  # (page_id, key, seq)
        leaf_entries: list[tuple[Any, int, int]] = []
        leaf_cells: list[bytes] = []
        size = 0

        def flush_leaf() -> None:
            nonlocal leaf_entries, leaf_cells, size
            if not leaf_entries:
                return
            node = LeafNode([e[0] for e in leaf_entries],
                            [e[1] for e in leaf_entries],
                            [e[2] for e in leaf_entries], leaf_cells)
            level.append((self._adopt(node), leaf_entries[0][0],
                          leaf_entries[0][1]))
            leaf_entries = []
            leaf_cells = []
            size = 0

        for entry in entries:
            cell = _encode_entry(*entry)
            entry_size = len(cell) + SLOT_SIZE
            if leaf_entries and size + entry_size > budget:
                flush_leaf()
            leaf_entries.append(entry)
            leaf_cells.append(cell)
            size += entry_size
        flush_leaf()

        while len(level) > 1:
            parent_level: list[tuple[int, Any, int]] = []
            group: list[tuple[int, Any, int]] = []
            group_size = len(bytes(8))  # leftmost child cell estimate
            for child_id, key, seq in level:
                cell_size = (len(_encode_separator(child_id, key, seq))
                             + SLOT_SIZE)
                if group and group_size + cell_size > budget:
                    parent_level.append(self._flush_inner(group))
                    group = []
                    group_size = 8
                group.append((child_id, key, seq))
                group_size += cell_size
            if group:
                parent_level.append(self._flush_inner(group))
            level = parent_level
        self.root = level[0][0]

    def _flush_inner(self,
                     group: list[tuple[int, Any, int]]) -> tuple[int, Any, int]:
        node = InnerNode([child for child, _, _ in group],
                         [key for _, key, _ in group[1:]],
                         [seq for _, _, seq in group[1:]])
        return self._adopt(node), group[0][1], group[0][2]

    # -- lookup ---------------------------------------------------------

    def _iter_entries(self, key_range: IndexRange | None,
                      ) -> Iterator[tuple[Any, int, int]]:
        if self.root is None:
            return
        low = None if key_range is None else key_range.low
        low_inclusive = key_range.low_inclusive if key_range else True
        high = None if key_range is None else key_range.high
        high_inclusive = key_range.high_inclusive if key_range else True
        # Explicit ancestor stack instead of sibling pointers.
        stack: list[tuple[InnerNode, int]] = []
        node = self._fetch(self.root)
        while isinstance(node, InnerNode):
            if low is None:
                idx = 0
            elif low_inclusive:
                idx = bisect.bisect_left(node.sep_keys, low)
            else:
                idx = bisect.bisect_right(node.sep_keys, low)
            stack.append((node, idx + 1))
            node = self._fetch(node.children[idx])
        if low is None:
            start = 0
        elif low_inclusive:
            start = bisect.bisect_left(node.keys, low)
        else:
            start = bisect.bisect_right(node.keys, low)
        while True:
            for slot in range(start, len(node.keys)):
                key = node.keys[slot]
                if high is not None:
                    if high_inclusive:
                        if key > high:
                            return
                    elif key >= high:
                        return
                yield key, node.seqs[slot], node.positions[slot]
            # Advance to the next leaf via the ancestor stack.
            node = None
            while stack:
                parent, next_idx = stack.pop()
                if next_idx < len(parent.children):
                    stack.append((parent, next_idx + 1))
                    node = self._fetch(parent.children[next_idx])
                    while isinstance(node, InnerNode):
                        stack.append((node, 1))
                        node = self._fetch(node.children[0])
                    break
            if node is None:
                return
            start = 0

    def scan(self, key_range: IndexRange) -> Iterator[int]:
        for _, _, position in self._iter_entries(key_range):
            yield position

    def count(self, key_range: IndexRange) -> int:
        total = 0
        for _ in self._iter_entries(key_range):
            total += 1
        return total

    def min_key(self) -> Any:
        for key, _, _ in self._iter_entries(None):
            return key
        return None

    def max_key(self) -> Any:
        if self.root is None:
            return None
        node = self._fetch(self.root)
        while isinstance(node, InnerNode):
            node = self._fetch(node.children[-1])
        return node.keys[-1] if node.keys else None

    # -- invariants (test support) --------------------------------------

    def check_invariants(self) -> None:
        """Assert structural invariants; raises StorageError on breach.

        Checked: every leaf at the same depth (balance), entries sorted
        by ``(key, seq)`` globally, node byte sizes within capacity and
        equal to what the node encodes to, leaf cells matching their
        entries, separator keys equal to the smallest entry of their
        subtree, and the recorded entry count matching an actual walk.
        """
        if self.root is None:
            if self.entry_count:
                raise StorageError("empty tree with non-zero entry count")
            return
        capacity = self._capacity()
        leaf_depths: set[int] = set()
        total = 0
        previous: tuple | None = None

        def visit(page_id: int, depth: int) -> tuple:
            nonlocal total, previous
            node = self._fetch(page_id)
            if node.nbytes > capacity:
                raise StorageError(
                    f"page {page_id} overflows capacity "
                    f"({node.nbytes} > {capacity})")
            encoded = cells_size(node.encode_cells()[1])
            if node.nbytes != encoded:
                raise StorageError(
                    f"page {page_id} records {node.nbytes} bytes but "
                    f"encodes to {encoded}")
            if isinstance(node, LeafNode):
                leaf_depths.add(depth)
                if not node.keys and self.entry_count:
                    raise StorageError(f"empty leaf {page_id}")
                if node.cells != list(map(_encode_entry, node.keys,
                                          node.seqs, node.positions)):
                    raise StorageError(
                        f"leaf {page_id} cells out of step with entries")
                for key, seq in zip(node.keys, node.seqs):
                    entry = (key, seq)
                    if previous is not None and entry <= previous:
                        raise StorageError(
                            f"entries out of order: {previous!r} then "
                            f"{entry!r}")
                    previous = entry
                total += len(node.keys)
                return (node.keys[0], node.seqs[0])
            smallest = None
            for index, child in enumerate(node.children):
                child_min = visit(child, depth + 1)
                if index == 0:
                    smallest = child_min
                else:
                    sep = (node.sep_keys[index - 1],
                           node.sep_seqs[index - 1])
                    if child_min != sep:
                        raise StorageError(
                            f"separator {sep!r} != child minimum "
                            f"{child_min!r}")
            return smallest

        visit(self.root, 0)
        if len(leaf_depths) != 1:
            raise StorageError(f"unbalanced leaf depths {leaf_depths}")
        if total != self.entry_count:
            raise StorageError(
                f"entry count {self.entry_count} != walked {total}")


class BTreeBackedIndex(SortedIndex):
    """A :class:`SortedIndex` whose entries live in an on-disk B-tree.

    Same public behaviour — NULL keys excluded, equal keys in insertion
    order, exact range counts — but every probe goes through the buffer
    pool, so index memory is bounded by ``REPRO_BUFFER_PAGES`` like any
    other page access.
    """

    def __init__(self, name: str, column: str, tree: DiskBTree) -> None:
        super().__init__(name, column)
        self.tree = tree

    def __len__(self) -> int:
        return len(self.tree)

    def build(self, keyed_positions: Iterable[tuple[Any, int]]) -> None:
        self.tree.build(keyed_positions)

    def insert(self, key: Any, position: int) -> None:
        if key is None:
            return
        self.tree.insert(key, position)

    def insert_many(self, keyed_positions: Iterable[tuple[Any, int]]) -> None:
        fresh = sorted(
            (pair for pair in keyed_positions if pair[0] is not None),
            key=lambda pair: pair[0])
        self.tree.insert_many(fresh)

    def scan(self, key_range: IndexRange) -> Iterator[int]:
        return self.tree.scan(key_range)

    def count(self, key_range: IndexRange) -> int:
        return self.tree.count(key_range)

    def min_key(self) -> Any:
        return self.tree.min_key()

    def max_key(self) -> Any:
        return self.tree.max_key()
