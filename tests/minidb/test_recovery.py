"""Crash-recovery test rig: kill writes at fault points, then recover.

Every scenario follows the same protocol:

1. Build a disk database, checkpoint it (``shutdown``), and reopen.
2. Arm one fault point via ``REPRO_STORAGE_CRASH=<point>[:n]`` and apply
   append batches until the simulated power cut
   (:class:`InjectedCrash`) fires.
3. Abandon the database exactly as the crash left the files
   (``simulate_crash`` — nothing is flushed or closed cleanly).
4. Reopen the same directory and assert the recovered state equals
   **exactly the last committed epoch**: every batch whose WAL COMMIT
   record hit the disk, nothing from the batch in flight — byte-for-byte
   identical to a memory-backend mirror fed the committed batches.

Which side of the line the in-flight batch lands on is determined by
the fault point: the WAL commit record is fsync'd *before* pages are
touched, so a crash during page application (``page-torn``,
``page-flush``) or after the commit record (``wal-after-commit``) must
recover the batch, while a crash before the commit record
(``wal-record-torn``, ``wal-before-commit``) must lose it.
"""

from __future__ import annotations

import pytest

from repro.minidb.engine import Database
from repro.minidb.index import IndexRange
from repro.minidb.schema import TableSchema
from repro.minidb.storage import faults
from repro.minidb.storage.faults import InjectedCrash
from repro.minidb.types import SqlType

READS = TableSchema.of(
    ("id", SqlType.INTEGER), ("epc", SqlType.VARCHAR),
    ("loc", SqlType.INTEGER), ("v", SqlType.DOUBLE),
    ("ok", SqlType.BOOLEAN), ("rtime", SqlType.TIMESTAMP))

#: 150 rows ≈ 14 pages at page_size=512 — comfortably above the 8-page
#: pool, so every batch forces dirty evictions (page fault points fire).
BATCH_ROWS = 150

QUERY = ("SELECT epc, COUNT(*) AS n, SUM(loc) AS total, MIN(id) AS lo "
         "FROM reads GROUP BY epc ORDER BY epc")

#: Fault points where the in-flight batch's COMMIT record is already
#: durable when the crash fires, so recovery must redo the batch.
COMMITS_CURRENT = ("wal-after-commit", "page-torn", "page-flush")

#: (crash spec, append batch count) matrix. ``:n`` arms the n-th hit so
#: later batches crash too; checkpoint points fire at the explicit
#: checkpoint after all appends succeeded.
MATRIX = [
    ("wal-record-torn", 1),
    ("wal-record-torn:3", 3),
    ("wal-before-commit", 1),
    ("wal-before-commit:2", 3),
    ("wal-after-commit", 1),
    ("wal-after-commit:3", 3),
    ("page-torn", 1),
    ("page-torn:9", 3),
    ("page-flush", 1),
    ("page-flush:11", 3),
    ("checkpoint-before-manifest", 1),
    ("checkpoint-before-manifest", 3),
    ("checkpoint-after-manifest", 1),
    ("checkpoint-after-manifest", 3),
]


def _batch(ordinal: int) -> list[tuple]:
    base = ordinal * BATCH_ROWS
    return [(base + i, f"epc{(base + i) % 13}", (base + i) % 7,
             (base + i) * 0.5, (base + i) % 2 == 0, 1_000_000 + base + i)
            for i in range(BATCH_ROWS)]


def _new(path: str) -> Database:
    return Database(storage="disk", storage_path=path,
                    buffer_pages=8, page_size=512)


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
    assert list(recovered.table("reads").scan()) == expected_rows
    assert recovered.execute(QUERY).rows == mirror.execute(QUERY).rows
    disk_index = recovered.table("reads").index_on("epc")
    memory_index = mirror.table("reads").index_on("epc")
    everything = IndexRange()
    assert list(disk_index.scan(everything)) == \
        list(memory_index.scan(everything))


@pytest.mark.parametrize("spec,batches", MATRIX)
def test_crash_recovers_last_committed_epoch(tmp_path, monkeypatch,
                                             spec, batches):
    point = spec.partition(":")[0]
    assert point in faults.ALL_POINTS
    path = str(tmp_path / "db")
    initial = _batch(0)
    db = _new(path)
    db.create_table("reads", READS)
    db.load("reads", initial)
    db.create_index("reads", "epc")
    db.shutdown()  # checkpoint: the manifest now references every page

    db = _new(path)
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
        db.checkpoint()  # the checkpoint-* fault points fire here
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
        _assert_recovered_equals(recovered, committed)
    finally:
        recovered.shutdown()


def test_compaction_move_crash_recovers(tmp_path, monkeypatch):
    """A crash mid-compaction must leave the old manifest + WAL intact.

    Move targets come only from pages freed before the current manifest
    was written, so the relocated copies land on pages neither the old
    manifest nor WAL replay reads: recovery after ``compaction-move``
    behaves exactly like one after ``checkpoint-before-manifest``.
    """
    path = str(tmp_path / "db")
    initial = _batch(0)
    db = _new(path)
    db.create_table("reads", READS)
    db.load("reads", initial)
    db.create_index("reads", "epc")
    db.shutdown()

    db = _new(path)
    replacement = [row for row in initial if row[0] % 3 == 0]
    db.table("reads").replace_rows(replacement, coerced=False)
    db.checkpoint()  # retired pages become free: compaction candidates
    # Small enough to leave free holes below the live tail pages, so
    # the next checkpoint actually plans moves.
    appended = _batch(1)[:20]
    db.append("reads", appended)  # committed before the crash below
    monkeypatch.setenv(faults.CRASH_ENV, "compaction-move")
    with pytest.raises(InjectedCrash):
        db.checkpoint()
    db.storage.simulate_crash()

    monkeypatch.delenv(faults.CRASH_ENV)
    faults.reset()
    recovered = _new(path)
    try:
        _assert_recovered_equals(recovered, [replacement + appended])
    finally:
        recovered.shutdown()


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


def test_replace_rows_recovers(tmp_path, monkeypatch):
    """A whole-table rewrite is one atomic WAL transaction too."""
    path = str(tmp_path / "db")
    initial = _batch(0)
    replacement = [row for row in initial if row[2] != 3]
    db = _new(path)
    db.create_table("reads", READS)
    db.load("reads", initial)
    db.create_index("reads", "epc")
    db.shutdown()

    db = _new(path)
    db.table("reads").replace_rows(replacement, coerced=False)
    monkeypatch.setenv(faults.CRASH_ENV, "wal-before-commit")
    with pytest.raises(InjectedCrash):
        db.append("reads", _batch(1))  # lost: commit record never wrote
    db.storage.simulate_crash()

    monkeypatch.delenv(faults.CRASH_ENV)
    faults.reset()
    recovered = _new(path)
    try:
        _assert_recovered_equals(recovered, [replacement])
    finally:
        recovered.shutdown()


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
