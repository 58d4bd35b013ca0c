"""Crash-recovery test rig: kill writes at fault points, then recover.

Every scenario follows the same protocol:

1. Build a disk database, checkpoint it (``shutdown``), and reopen.
2. Arm one fault point via ``REPRO_STORAGE_CRASH=<point>[:n]`` and apply
   append batches, then a checkpoint, until the simulated power cut
   (:class:`InjectedCrash`) fires.
3. Abandon the database exactly as the crash left the files
   (``simulate_crash`` — nothing is flushed or closed cleanly).
4. Reopen the same directory and assert the recovered state equals
   **exactly the last committed epoch**: every batch whose WAL COMMIT
   record hit the disk, nothing from the batch in flight — byte-for-byte
   identical to a memory-backend mirror fed the committed batches.

Which side of the line the in-flight batch lands on is determined by
the fault point: the WAL commit record is fsync'd *before* the rows
change in memory, so a crash after the commit record
(``wal-after-commit``) must recover the batch, while a crash before it
(``wal-record-torn``, ``wal-before-commit``) must lose it. The other
points fire inside the checkpoint, after every batch committed: a torn
segment append, crashes before and after the manifest, and the same on
an image rewrite (forced by dropping a checkpointed table that holds
most of the bytes before the appends).
"""

from __future__ import annotations

import json
import os
import struct
import zlib

import pytest

from repro.errors import StorageError
from repro.minidb.engine import Database
from repro.minidb.index import IndexRange
from repro.minidb.schema import TableSchema
from repro.minidb.storage import faults
from repro.minidb.storage.faults import InjectedCrash
from repro.minidb.storage.wal import encode_commit
from repro.minidb.types import SqlType

READS = TableSchema.of(
    ("id", SqlType.INTEGER), ("epc", SqlType.VARCHAR),
    ("loc", SqlType.INTEGER), ("v", SqlType.DOUBLE),
    ("ok", SqlType.BOOLEAN), ("rtime", SqlType.TIMESTAMP))

BATCH_ROWS = 150

QUERY = ("SELECT epc, COUNT(*) AS n, SUM(loc) AS total, MIN(id) AS lo "
         "FROM reads GROUP BY epc ORDER BY epc")

#: Fault points where the in-flight batch's COMMIT record is already
#: durable when the crash fires, so recovery must redo the batch.
COMMITS_CURRENT = ("wal-after-commit",)

#: (crash spec, append batch count, image rewrite) matrix. ``:n`` arms
#: the n-th hit so later batches crash too; the other points fire at the
#: explicit checkpoint after all appends succeeded, which rewrites the
#: image when the scenario dropped the bulky ``scratch`` table first.
MATRIX = [
    ("wal-record-torn", 1, False),
    ("wal-record-torn:3", 3, False),
    ("wal-before-commit", 1, False),
    ("wal-before-commit:2", 3, False),
    ("wal-after-commit", 1, False),
    ("wal-after-commit:3", 3, False),
    ("segment-torn", 1, False),
    ("segment-torn", 3, False),
    ("segment-torn", 3, True),
    ("checkpoint-before-manifest", 1, False),
    ("checkpoint-before-manifest", 3, False),
    ("rewrite-before-manifest", 1, True),
    ("rewrite-before-manifest", 3, True),
    ("rewrite-after-manifest", 1, True),
    ("rewrite-after-manifest", 3, True),
    ("checkpoint-after-manifest", 1, False),
    ("checkpoint-after-manifest", 3, False),
    ("checkpoint-after-manifest", 3, True),
]


#: A table that outweighs ``reads``: dropping it makes the next
#: checkpoint rewrite the image.
SCRATCH = TableSchema.of(("x", SqlType.INTEGER))
SCRATCH_ROWS = [(i,) for i in range(5000)]


def _batch(ordinal: int) -> list[tuple]:
    base = ordinal * BATCH_ROWS
    return [(base + i, f"epc{(base + i) % 13}", (base + i) % 7,
             (base + i) * 0.5, (base + i) % 2 == 0, 1_000_000 + base + i)
            for i in range(BATCH_ROWS)]


def _new(path: str) -> Database:
    return Database(storage="disk", storage_path=path)


def _mirror(batches: list[list[tuple]]) -> Database:
    db = Database()  # memory backend: the recovery oracle
    db.create_table("reads", READS)
    db.load("reads", batches[0])
    db.create_index("reads", "epc")
    for batch in batches[1:]:
        db.append("reads", batch)
    return db


@pytest.fixture(autouse=True)
def _clean_faults(monkeypatch):
    monkeypatch.delenv(faults.CRASH_ENV, raising=False)
    faults.reset()
    yield
    faults.reset()


def _assert_recovered_equals(recovered: Database,
                             committed: list[list[tuple]]) -> None:
    mirror = _mirror(committed)
    expected_rows = [row for batch in committed for row in batch]
    assert recovered.table("reads").rows == expected_rows
    assert recovered.execute(QUERY).rows == mirror.execute(QUERY).rows
    disk_index = recovered.table("reads").index_on("epc")
    memory_index = mirror.table("reads").index_on("epc")
    everything = IndexRange()
    assert list(disk_index.scan(everything)) == \
        list(memory_index.scan(everything))


def test_matrix_covers_every_fault_point():
    assert {spec.partition(":")[0] for spec, _, _ in MATRIX} == \
        set(faults.ALL_POINTS)


@pytest.mark.parametrize(
    "spec,batches,rewrite", MATRIX,
    ids=[f"{spec}-{batches}" + ("-rewrite" if rewrite else "")
         for spec, batches, rewrite in MATRIX])
def test_crash_recovers_last_committed_epoch(tmp_path, monkeypatch,
                                             spec, batches, rewrite):
    point = spec.partition(":")[0]
    assert point in faults.ALL_POINTS
    path = str(tmp_path / "db")
    initial = _batch(0)
    db = _new(path)
    db.create_table("reads", READS)
    db.load("reads", initial)
    db.create_index("reads", "epc")
    if rewrite:
        db.create_table("scratch", SCRATCH)
        db.load("scratch", SCRATCH_ROWS)
    db.shutdown()  # checkpoint: the manifest now names the segments

    db = _new(path)
    if rewrite:
        db.drop_table("scratch")  # its segment's dead bytes outweigh live
    monkeypatch.setenv(faults.CRASH_ENV, spec)
    applied: list[list[tuple]] = []
    attempted: list[tuple] | None = None
    crashed: InjectedCrash | None = None
    try:
        for ordinal in range(batches):
            attempted = _batch(ordinal + 1)
            db.append("reads", attempted)
            applied.append(attempted)
            attempted = None
        db.checkpoint()  # the checkpoint-time fault points fire here
    except InjectedCrash as crash:
        crashed = crash
    assert crashed is not None, f"{spec} never fired"
    assert crashed.point == point
    db.storage.simulate_crash()

    committed = [initial, *applied]
    if attempted is not None and point in COMMITS_CURRENT:
        committed.append(attempted)

    monkeypatch.delenv(faults.CRASH_ENV)
    faults.reset()
    recovered = _new(path)
    try:
        assert recovered.catalog.table_names() == ["reads"]
        _assert_recovered_equals(recovered, committed)
        # The recovered directory keeps working: one more batch, a
        # checkpoint on top of whatever the crash left, and a reopen.
        committed.append(_batch(batches + 1))
        recovered.append("reads", committed[-1])
    finally:
        recovered.shutdown()
    reopened = _new(path)
    try:
        _assert_recovered_equals(reopened, committed)
    finally:
        reopened.shutdown()


def test_drop_rewrite_crash_recovers(tmp_path, monkeypatch):
    """Dropping the checkpointed table that holds most of the bytes
    makes the next checkpoint rewrite the image; a crash after that
    manifest, before the new file is renamed in place, recovers by
    finishing the rename."""
    path = str(tmp_path / "db")
    initial = _batch(0)
    db = _new(path)
    db.create_table("reads", READS)
    db.load("reads", initial)
    db.create_index("reads", "epc")
    db.create_table("scratch", SCRATCH)
    db.load("scratch", SCRATCH_ROWS)
    db.shutdown()

    db = _new(path)
    db.drop_table("scratch")
    monkeypatch.setenv(faults.CRASH_ENV, "rewrite-after-manifest")
    with pytest.raises(InjectedCrash):
        db.checkpoint()
    db.storage.simulate_crash()

    monkeypatch.delenv(faults.CRASH_ENV)
    faults.reset()
    recovered = _new(path)
    try:
        assert "scratch" not in recovered.catalog
        _assert_recovered_equals(recovered, [initial])
    finally:
        recovered.shutdown()
    assert sorted(os.listdir(path)) == ["MANIFEST.json", "data.pages",
                                        "wal.log"]


def test_ddl_and_drops_replay_from_wal(tmp_path, monkeypatch):
    """CREATE TABLE / CREATE INDEX / DROP TABLE recover from the log
    alone — no checkpoint ever happened."""
    path = str(tmp_path / "db")
    initial = _batch(0)
    db = _new(path)
    db.create_table("reads", READS)
    db.load("reads", initial)
    db.create_index("reads", "epc")
    db.create_table("scratch", TableSchema.of(("x", SqlType.INTEGER)))
    db.load("scratch", [(1,), (2,)])
    db.drop_table("scratch")
    follow_up = _batch(1)
    monkeypatch.setenv(faults.CRASH_ENV, "wal-after-commit")
    with pytest.raises(InjectedCrash):
        db.append("reads", follow_up)  # committed, then the crash
    db.storage.simulate_crash()

    monkeypatch.delenv(faults.CRASH_ENV)
    faults.reset()
    recovered = _new(path)
    try:
        assert "scratch" not in recovered.catalog
        _assert_recovered_equals(recovered, [initial, follow_up])
    finally:
        recovered.shutdown()


def test_whole_table_rewrite_record_is_refused(tmp_path):
    """Op 5 was the REPLACE record of versions that rewrote tables in
    place. A committed one is refused, not read as a torn tail: skipping
    it would silently drop every transaction committed after it."""
    path = tmp_path / "db"
    db = _new(str(path))
    db.create_table("reads", READS)
    db.load("reads", _batch(0))
    db.shutdown()
    epoch = json.loads((path / "MANIFEST.json").read_text())["epoch"]
    with open(path / "wal.log", "ab") as log:
        for payload in (bytes([5]) + bytes([5]) + b"reads" + bytes([0]),
                        encode_commit(epoch + 1)):
            log.write(struct.pack(">II", len(payload), zlib.crc32(payload))
                      + payload)
    before = {name: (path / name).read_bytes() for name in os.listdir(path)}
    with pytest.raises(StorageError, match="unknown WAL op 5"):
        _new(str(path))
    assert {name: (path / name).read_bytes()
            for name in os.listdir(path)} == before


def test_crash_during_recovery_checkpoint_is_survivable(tmp_path,
                                                        monkeypatch):
    """Recovery itself can crash (at its folding checkpoint) and the
    *next* recovery still lands on the last committed epoch."""
    path = str(tmp_path / "db")
    initial = _batch(0)
    db = _new(path)
    db.create_table("reads", READS)
    db.load("reads", initial)
    db.create_index("reads", "epc")
    db.shutdown()

    db = _new(path)
    monkeypatch.setenv(faults.CRASH_ENV, "wal-after-commit")
    with pytest.raises(InjectedCrash):
        db.append("reads", _batch(1))  # committed
    db.storage.simulate_crash()
    faults.reset()

    # First recovery replays the batch, then crashes inside its own
    # checkpoint, before the new manifest is durable.
    monkeypatch.setenv(faults.CRASH_ENV, "checkpoint-before-manifest")
    with pytest.raises(InjectedCrash):
        _new(path)

    monkeypatch.delenv(faults.CRASH_ENV)
    faults.reset()
    recovered = _new(path)
    try:
        _assert_recovered_equals(recovered, [initial, _batch(1)])
    finally:
        recovered.shutdown()


def test_recovery_is_idempotent_across_reopens(tmp_path, monkeypatch):
    """Reopening twice without crashes changes nothing (epoch guard)."""
    path = str(tmp_path / "db")
    initial = _batch(0)
    db = _new(path)
    db.create_table("reads", READS)
    db.load("reads", initial)
    db.create_index("reads", "epc")
    monkeypatch.setenv(faults.CRASH_ENV, "checkpoint-after-manifest")
    with pytest.raises(InjectedCrash):
        db.checkpoint()  # manifest durable, WAL left un-truncated
    db.storage.simulate_crash()
    monkeypatch.delenv(faults.CRASH_ENV)

    for _ in range(2):  # WAL epochs <= manifest epoch: replay skips all
        faults.reset()
        recovered = _new(path)
        try:
            _assert_recovered_equals(recovered, [initial])
        finally:
            recovered.shutdown()
