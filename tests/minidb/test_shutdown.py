"""Database.shutdown(): idempotent, safe on partial construction
(satellite 1)."""

from __future__ import annotations

import pytest

from repro.minidb import Database, SqlType, TableSchema
from repro.minidb.storage.backend import DiskStorage


def test_shutdown_is_idempotent_memory():
    db = Database()
    db.shutdown()
    db.shutdown()


def test_shutdown_is_idempotent_disk(tmp_path):
    db = Database(storage="disk", storage_path=str(tmp_path / "d"))
    db.create_table("t", TableSchema.of(("k", SqlType.INTEGER)))
    db.load("t", [(1,), (2,)])
    db.shutdown()
    db.shutdown()  # second close must not touch the closed WAL


def test_shutdown_releases_derived_data_disk(tmp_path):
    """A shut-down disk database holds no rows, column cache or index
    entries, however long something keeps the object alive."""
    db = Database(storage="disk", storage_path=str(tmp_path / "d"))
    db.create_table("t", TableSchema.of(("k", SqlType.INTEGER),
                                        ("v", SqlType.INTEGER)))
    db.load("t", [(i, i % 3) for i in range(50)])
    db.create_index("t", "k")
    db.create_index("t", "v")
    assert db.execute("select count(*) as n from t where k < 10").rows \
        == [(10,)]
    [table] = db.catalog
    assert table._columns is not None
    db.shutdown()
    assert table._columns is None
    assert table.rows == []
    assert [len(index) for index in table.indexes.values()] == [0, 0]


def test_context_manager_shuts_down(tmp_path):
    with Database(storage="disk",
                  storage_path=str(tmp_path / "d")) as db:
        db.create_table("t", TableSchema.of(("k", SqlType.INTEGER)))
        db.load("t", [(7,)])
    # Reopening proves the close checkpointed cleanly.
    with Database(storage="disk",
                  storage_path=str(tmp_path / "d")) as reopened:
        assert reopened.execute("select k from t").rows == [(7,)]


def test_failed_init_leaves_shutdown_safe():
    """__exit__/__del__ after a failed __init__ must not raise."""
    with pytest.raises(ValueError):
        Database(storage="floppy")
    # The instance that failed mid-__init__ is gone, but the same
    # guarantee must hold for an instance with *no* attributes at all
    # (the worst partial-construction case).
    bare = Database.__new__(Database)
    bare.shutdown()  # no AttributeError
    bare.__exit__(None, None, None)


def test_disk_storage_close_tolerates_partial_construction(monkeypatch,
                                                           tmp_path):
    """If the WAL cannot be opened, close() still works."""
    import repro.minidb.storage.backend as backend

    def broken_wal(*args, **kwargs):
        raise RuntimeError("WAL construction failed")

    monkeypatch.setattr(backend.walmod, "WriteAheadLog", broken_wal)
    with pytest.raises(RuntimeError):
        DiskStorage(path=str(tmp_path / "d"))
    # A storage object frozen before its WAL existed closes cleanly.
    bare = DiskStorage.__new__(DiskStorage)
    bare.wal = None
    bare.catalog = None
    bare.dead = False
    bare.closed = False
    bare.close()
    bare.checkpoint()
