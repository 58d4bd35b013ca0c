"""MVCC snapshots: isolation, detach, release, plan reuse.

The core contract (ISSUE §tentpole, satellite 3): a reader that pinned
a snapshot sees *exactly* its epoch while ``append()`` lands twice
underneath it — rows AND EXPLAIN ANALYZE output byte-identical to a
frozen replica of the pinned state — across storage={memory,disk}.
"""

from __future__ import annotations

import pytest

from repro.errors import SnapshotError
from repro.minidb import Database, SqlType, TableSchema

READS = TableSchema.of(
    ("epc", SqlType.VARCHAR),
    ("rtime", SqlType.TIMESTAMP),
    ("reader", SqlType.VARCHAR),
    ("biz_loc", SqlType.VARCHAR),
    ("biz_step", SqlType.VARCHAR),
)

#: One aggregate over a sequential scan, one index range with an order:
#: together they cover both base-scan operators the snapshot arms.
QUERIES = (
    "select biz_loc, count(*) as n from r "
    "group by biz_loc order by biz_loc",
    "select epc, rtime, biz_loc from r "
    "where rtime <= 260 order by rtime, epc",
)


def _rows(count: int, start: int = 0) -> list[tuple]:
    return [(f"e{i % 7}", 10 * i, f"rd{i % 3}", f"l{i % 5}", "step")
            for i in range(start, start + count)]


def _build(storage: str, rows: list[tuple]) -> Database:
    db = Database(storage=storage)
    db.create_table("r", READS)
    db.load("r", rows)
    db.create_index("r", "rtime")
    db.create_index("r", "epc")
    return db


@pytest.mark.parametrize("storage", ["memory", "disk"])
def test_snapshot_pins_epoch_under_double_append(storage):
    """Rows and EXPLAIN ANALYZE match a frozen replica, twice over."""
    live = _build(storage, _rows(40))
    frozen = _build(storage, _rows(40))  # replica of the pinned epoch
    try:
        with live.snapshot() as snapshot:
            before = [snapshot.execute(sql).rows for sql in QUERIES]
            live.append("r", _rows(12, start=40))
            mid = [snapshot.execute(sql).rows for sql in QUERIES]
            live.append("r", _rows(12, start=52))
            after = [snapshot.execute(sql).rows for sql in QUERIES]
            expected = [frozen.execute(sql).rows for sql in QUERIES]
            assert before == mid == after == expected
            for sql in QUERIES:
                assert (snapshot.explain_analyze(sql)
                        == frozen.explain_analyze(sql).text)
        # The live database sees every appended row.
        total = live.execute("select count(*) as n from r").scalar()
        assert total == 64
    finally:
        live.shutdown()
        frozen.shutdown()


@pytest.mark.parametrize("storage", ["memory", "disk"])
def test_snapshot_counters_match_frozen_replica(storage):
    """EXPLAIN ANALYZE counters, not just rows, pin the epoch."""
    live = _build(storage, _rows(30))
    frozen = _build(storage, _rows(30))
    try:
        with live.snapshot() as snapshot:
            live.append("r", _rows(100, start=30))
            for sql in QUERIES:
                _, snap_metrics = snapshot.execute_with_metrics(sql)
                _, base_metrics = frozen.execute_with_metrics(sql)
                assert snap_metrics.rows_emitted == base_metrics.rows_emitted
                assert snap_metrics.operator_rows == base_metrics.operator_rows
                assert snap_metrics.batches == base_metrics.batches
    finally:
        live.shutdown()
        frozen.shutdown()


def test_snapshot_survives_drop_table():
    """A dropped table's row list stays with the pinned version, so an
    already-planned query keeps answering."""
    db = _build("memory", _rows(20))
    with db.snapshot() as snapshot:
        expected = snapshot.execute(QUERIES[0]).rows  # plan now cached
        db.drop_table("r")
        assert snapshot.execute(QUERIES[0]).rows == expected


def test_snapshot_pins_are_values_released_alone():
    """A pin is the table's row count: two snapshots of one state pin
    equal values, and releasing one leaves the other answering."""
    db = _build("memory", _rows(10))
    first = db.snapshot()
    second = db.snapshot()
    assert first.versions["r"] == second.versions["r"]
    assert first.versions["r"].row_count == 10
    first.release()
    assert second.execute(QUERIES[0]).rows == db.execute(QUERIES[0]).rows
    second.release()
    # release is idempotent.
    second.release()
    assert second.released


def test_snapshot_rejects_tables_created_after_pin():
    db = _build("memory", _rows(10))
    with db.snapshot() as snapshot:
        db.create_table("late", TableSchema.of(("k", SqlType.INTEGER)))
        with pytest.raises(SnapshotError):
            snapshot.row_count("late")
        with pytest.raises(SnapshotError):
            snapshot.execute("select k from late")


def test_snapshot_released_refuses_queries():
    db = _build("memory", _rows(10))
    snapshot = db.snapshot()
    snapshot.release()
    with pytest.raises(SnapshotError):
        snapshot.execute(QUERIES[0])


def test_session_plan_cache_reuses_across_snapshots():
    """One session cache, many snapshots: replans hit zero (ISSUE:
    per-session prepared-plan reuse keyed on plan-cache fingerprints)."""
    from repro.minidb.engine import PreparedPlanCache

    db = _build("memory", _rows(20))
    cache = PreparedPlanCache(16)
    with db.snapshot(plan_cache=cache) as snapshot:
        snapshot.execute(QUERIES[0])
    misses_after_first = cache.misses
    db.append("r", _rows(5, start=20))  # trickle append keeps stats version
    with db.snapshot(plan_cache=cache) as snapshot:
        result, metrics = snapshot.execute_with_metrics(QUERIES[0])
    assert cache.misses == misses_after_first
    assert metrics.plan_cache_hits == 1
    # And the second snapshot saw the appended rows.
    assert sum(row[1] for row in result.rows) == 25
