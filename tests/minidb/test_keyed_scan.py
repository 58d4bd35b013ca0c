"""Keyed scans: a literal ``col IN (...)`` answered through an index.

The planner reads only the rows whose indexed key equals one of the
list's items (``SeqScan.keyed_batches``) and keeps the IN list as a
filter above. Every test compares rows *and their order* with the plan
that may not use indexes at all.
"""

from __future__ import annotations

from repro.minidb import Database, PlannerOptions, SqlType, TableSchema
from repro.minidb.expressions import ColumnRef, InList, Literal
from repro.minidb.plan.logical import LogicalFilter, LogicalScan
from repro.minidb.plan.physical import SeqScan

ROWS = 400

NO_INDEX = PlannerOptions(use_indexes=False)


def _database() -> Database:
    """``t(k, x, v)`` indexed on ``k`` (with NULLs) and on ``x`` (floats)."""
    db = Database(storage="memory")
    db.create_table("t", TableSchema.of(
        ("k", SqlType.INTEGER), ("x", SqlType.DOUBLE),
        ("v", SqlType.VARCHAR)))
    db.load("t", [(None if i % 11 == 0 else (i * 7) % 50, float(i % 40),
                   f"v{i}") for i in range(ROWS)])
    db.create_index("t", "k")
    db.create_index("t", "x")
    db.analyze()
    return db


def _keyed_scans(plan) -> list[SeqScan]:
    return [node for node in plan.walk()
            if isinstance(node, SeqScan) and node.keys is not None]


def _same_as_scan(db: Database, query) -> list[tuple]:
    """The keyed plan's rows, asserted equal (in order) to the scan's."""
    rows = db.execute(query).rows
    assert rows == db.execute(query, NO_INDEX).rows
    return rows


class TestSameRowsSameOrder:
    def test_duplicate_items_and_a_null_item(self):
        db = _database()
        sql = "select k, v from t where k in (3, 7, 3, null, 7)"
        (scan,) = _keyed_scans(db.plan(sql))
        assert scan.keys == (3, 7)
        rows = _same_as_scan(db, sql)
        assert rows and {k for k, _ in rows} == {3, 7}

    def test_not_in_does_not_use_the_index(self):
        db = _database()
        sql = "select k, v from t where k not in (3, 7)"
        assert _keyed_scans(db.plan(sql)) == []
        _same_as_scan(db, sql)

    def test_nan_item_falls_back_to_the_scan(self):
        db = _database()
        table = db.table("t")
        logical = LogicalFilter(LogicalScan(table), InList(
            ColumnRef("x"), (Literal(3.0), Literal(float("nan")))))
        assert _keyed_scans(db.plan(logical)) == []
        rows = _same_as_scan(db, logical)
        assert rows and {row[1] for row in rows} == {3.0}

    def test_int_and_float_items_are_one_key(self):
        db = _database()
        sql = "select k, v from t where k in (1, 1.0)"
        (scan,) = _keyed_scans(db.plan(sql))
        assert len(scan.keys) == 1
        assert _same_as_scan(db, sql)
        # An integer item probing a float column finds the equal floats.
        assert _same_as_scan(db, "select x, v from t where x in (2, 5)")

    def test_text_probing_an_integer_index(self):
        db = _database()
        sql = "select k, v from t where k in ('3', 4)"
        rows = _same_as_scan(db, sql)
        assert rows and {k for k, _ in rows} == {4}

    def test_keyed_scan_reads_only_matching_rows(self):
        db = _database()
        sql = "select k, v from t where k in (3, 7)"
        explained = db.explain_analyze(sql)
        (scan,) = _keyed_scans(explained.plan)
        matching = sum(1 for row in db.table("t").rows if row[0] in (3, 7))
        assert scan.actual_rows == matching
        assert "SeqScan(t keyed k IN 2 keys)" in explained.text

    def test_many_matching_rows_keep_the_full_scan(self):
        db = _database()
        keys = ", ".join(str(key) for key in range(50))
        assert _keyed_scans(db.plan(f"select k from t where k in ({keys})")) \
            == []


class TestSnapshots:
    def test_pinned_snapshot_skips_later_appends(self):
        db = _database()
        sql = "select k, v from t where k in (3, 7)"
        expected = db.execute(sql, NO_INDEX).rows
        with db.snapshot() as snapshot:
            db.append("t", [(3, 0.5, "late"), (7, 0.5, "late")])
            assert _keyed_scans(snapshot.plan(sql))
            assert snapshot.execute(sql).rows == expected
