"""Physical-operator unit tests: join edge cases, NULL key semantics,
semi-join NOT IN behaviour, ordering propagation, and metrics counters.
"""

import pytest

from repro.fuzz import reference
from repro.minidb import Database, SqlType, TableSchema


@pytest.fixture
def db():
    database = Database()
    database.create_table("a", TableSchema.of(
        ("k", SqlType.INTEGER), ("x", SqlType.VARCHAR)))
    database.load("a", [(1, "one"), (2, "two"), (None, "null-key"),
                        (3, "three")])
    database.create_table("b", TableSchema.of(
        ("k", SqlType.INTEGER), ("y", SqlType.VARCHAR)))
    database.load("b", [(1, "uno"), (1, "ein"), (None, "nix")])
    return database


class TestJoinNullSemantics:
    def test_null_keys_never_join(self, db):
        rs = db.execute("select a.x, b.y from a, b where a.k = b.k")
        assert rs.as_set() == {("one", "uno"), ("one", "ein")}

    def test_left_join_null_key_row_padded(self, db):
        rs = db.execute(
            "select a.x, b.y from a left join b on a.k = b.k")
        assert ("null-key", None) in rs.as_set()
        assert ("two", None) in rs.as_set()

    def test_duplicate_build_rows_multiply(self, db):
        rs = db.execute("select count(*) from a, b where a.k = b.k")
        assert rs.scalar() == 2

    def test_join_with_residual_condition(self, db):
        rs = db.execute(
            "select a.x, b.y from a, b where a.k = b.k and b.y != 'uno'")
        assert rs.as_set() == {("one", "ein")}

    def test_left_join_residual_in_on_clause(self, db):
        rs = db.execute(
            "select a.x, b.y from a left join b "
            "on a.k = b.k and b.y = 'uno'")
        assert ("one", "uno") in rs.as_set()
        assert ("one", None) not in rs.as_set()
        assert ("two", None) in rs.as_set()


class TestSemiJoinSemantics:
    def test_in_ignores_null_left_keys(self, db):
        rs = db.execute("select x from a where k in (select k from b)")
        assert rs.as_set() == {("one",)}

    def test_not_in_with_null_on_right_yields_nothing(self, db):
        rs = db.execute(
            "select x from a where k not in (select k from b)")
        assert rs.rows == []

    def test_not_in_without_nulls(self, db):
        rs = db.execute(
            "select x from a where k not in "
            "(select k from b where k is not null)")
        assert rs.as_set() == {("two",), ("three",)}


class TestNestedLoopFallback:
    def test_inequality_join_uses_nested_loop(self, db):
        plan = db.plan("select a.k, b.k from a, b where a.k < b.k")
        assert "NestedLoopJoin" in plan.explain()
        rs = db.execute("select count(*) from a, b where a.k < b.k")
        assert rs.scalar() == 0  # b.k values are all 1 or NULL

    def test_cross_join_cardinality(self, db):
        assert db.execute("select count(*) from a, b").scalar() == 12


class TestOrderingPropagation:
    def test_index_order_survives_filter_and_project(self, db):
        db.create_index("a", "k")
        plan = db.plan("select k from a where k >= 1 and x != 'zzz' "
                       "order by k asc")
        # No explicit sort: IndexRangeScan order flows through
        # Filter and Project into the ORDER BY.
        assert "Sort" not in plan.explain()

    def test_projection_breaks_order_for_computed_columns(self, db):
        db.create_index("a", "k")
        plan = db.plan("select k + 1 as k2 from a where k >= 1 "
                       "order by k2 asc")
        assert "Sort" in plan.explain()

    def test_descending_requires_sort(self, db):
        db.create_index("a", "k")
        plan = db.plan("select k from a where k >= 1 order by k desc")
        assert "Sort" in plan.explain()


class TestActualRowCounters:
    def test_counters_populated(self, db):
        plan = db.plan("select x from a where k is not null")
        rows = list(plan.rows())
        assert len(rows) == 3
        assert plan.actual_rows == 3
        scan = list(plan.walk())[-1]
        assert scan.actual_rows == 4

    def test_rerun_accumulates(self, db):
        plan = db.plan("select x from a")
        list(plan.rows())
        list(plan.rows())
        assert plan.actual_rows == 8


class TestReferenceWindow:
    def test_results_identical(self, db):
        """The sliding-frame kernels against the reference evaluator's
        per-row rescan of the same frame."""
        sql = ("select k, count(*) over (order by k asc rows between "
               "1 preceding and current row) as c from a where "
               "k is not null")
        assert db.execute(sql).rows == reference.execute(db, sql)
