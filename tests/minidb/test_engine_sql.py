"""End-to-end SQL execution tests against the Database facade."""

import pytest

from repro.minidb import Database, SqlType, TableSchema


@pytest.fixture
def db():
    database = Database()
    database.create_table("t", TableSchema.of(
        ("k", SqlType.INTEGER), ("grp", SqlType.VARCHAR),
        ("v", SqlType.INTEGER)))
    database.load("t", [
        (1, "a", 10), (2, "a", 20), (3, "b", 30), (4, "b", None),
        (5, "c", 50)])
    database.create_table("d", TableSchema.of(
        ("k", SqlType.INTEGER), ("label", SqlType.VARCHAR)))
    database.load("d", [(1, "one"), (2, "two"), (3, "three")])
    return database


class TestBasics:
    def test_projection_and_filter(self, db):
        rs = db.execute("select k, v from t where v > 15")
        assert rs.as_set() == {(2, 20), (3, 30), (5, 50)}

    def test_expression_in_select(self, db):
        rs = db.execute("select k * 2 + 1 as x from t where k = 3")
        assert rs.scalar() == 7

    def test_order_by_desc(self, db):
        rs = db.execute("select k from t order by k desc limit 2")
        assert rs.rows == [(5,), (4,)]

    def test_limit_zero(self, db):
        assert len(db.execute("select k from t limit 0")) == 0

    def test_distinct(self, db):
        rs = db.execute("select distinct grp from t")
        assert rs.as_set() == {("a",), ("b",), ("c",)}

    def test_null_comparison_filters_row(self, db):
        rs = db.execute("select k from t where v > 0")
        assert (4,) not in rs.as_set()  # v is NULL there

    def test_is_null(self, db):
        rs = db.execute("select k from t where v is null")
        assert rs.rows == [(4,)]


class TestAggregation:
    def test_group_by(self, db):
        rs = db.execute(
            "select grp, count(*), sum(v) from t group by grp")
        assert rs.as_set() == {("a", 2, 30), ("b", 2, 30), ("c", 1, 50)}

    def test_count_ignores_nulls_count_star_does_not(self, db):
        rs = db.execute(
            "select count(v), count(*) from t where grp = 'b'")
        assert rs.rows == [(1, 2)]

    def test_having(self, db):
        rs = db.execute(
            "select grp from t group by grp having count(*) > 1")
        assert rs.as_set() == {("a",), ("b",)}

    def test_global_aggregate_on_empty_input(self, db):
        rs = db.execute("select count(*), max(v) from t where k > 99")
        assert rs.rows == [(0, None)]

    def test_avg(self, db):
        assert db.execute(
            "select avg(v) from t where grp = 'a'").scalar() == 15.0

    def test_count_distinct(self, db):
        assert db.execute("select count(distinct grp) from t").scalar() == 3


class TestJoins:
    def test_comma_join_with_where(self, db):
        rs = db.execute(
            "select t.k, d.label from t, d where t.k = d.k")
        assert rs.as_set() == {(1, "one"), (2, "two"), (3, "three")}

    def test_explicit_inner_join(self, db):
        rs = db.execute(
            "select t.k from t join d on t.k = d.k where d.label = 'two'")
        assert rs.rows == [(2,)]

    def test_left_join_pads_nulls(self, db):
        rs = db.execute(
            "select t.k, d.label from t left join d on t.k = d.k "
            "order by k asc")
        assert rs.rows == [(1, "one"), (2, "two"), (3, "three"),
                           (4, None), (5, None)]

    def test_non_equi_join(self, db):
        rs = db.execute(
            "select t.k, d.k from t, d where t.k < d.k and t.k = 2")
        assert rs.as_set() == {(2, 3)}

    def test_in_subquery(self, db):
        rs = db.execute(
            "select k from t where k in (select k from d where "
            "label != 'two')")
        assert rs.as_set() == {(1,), (3,)}

    def test_not_in_subquery(self, db):
        rs = db.execute(
            "select k from t where k not in (select k from d)")
        assert rs.as_set() == {(4,), (5,)}


class TestInSubqueryMatchesSqlite:
    """IN / NOT IN against an empty subquery, NULL operand included: SQL
    makes ``x NOT IN (empty)`` TRUE even when ``x`` is NULL. The stdlib's
    SQLite is the independent engine; the fuzz reference must agree."""

    ROWS = [(1, 1), (None, 2), (3, 3)]
    STATEMENTS = (
        "select b from t where a not in (select x from e where x > 100) "
        "order by b",
        "select b from t where not (a in (select x from e where x > 100)) "
        "order by b",
        "select b from t where a in (select x from e where x > 100) "
        "order by b",
    )

    @pytest.fixture
    def databases(self):
        import sqlite3

        database = Database()
        database.create_table("t", TableSchema.of(
            ("a", SqlType.INTEGER), ("b", SqlType.INTEGER)))
        database.load("t", self.ROWS)
        database.create_table("e", TableSchema.of(("x", SqlType.INTEGER)))
        database.load("e", [(5,), (7,)])
        lite = sqlite3.connect(":memory:")
        lite.execute("create table t (a integer, b integer)")
        lite.executemany("insert into t values (?, ?)", self.ROWS)
        lite.execute("create table e (x integer)")
        lite.executemany("insert into e values (?)", [(5,), (7,)])
        yield database, lite
        lite.close()
        database.shutdown()

    @pytest.mark.parametrize("sql", STATEMENTS)
    def test_executor_and_reference_match_sqlite(self, databases, sql):
        from repro.fuzz import reference

        database, lite = databases
        expected = lite.execute(sql).fetchall()
        assert database.execute(sql).rows == expected
        assert reference.execute(database, sql) == expected

    def test_not_in_empty_keeps_the_null_row(self, databases):
        database, _ = databases
        assert database.execute(self.STATEMENTS[0]).rows == \
            [(1,), (2,), (3,)]


class TestCtesAndSetOps:
    def test_cte(self, db):
        rs = db.execute(
            "with big as (select k, v from t where v >= 30) "
            "select count(*) from big")
        assert rs.scalar() == 2

    def test_cte_referenced_in_join(self, db):
        rs = db.execute(
            "with small as (select k from t where k <= 2) "
            "select d.label from small, d where small.k = d.k")
        assert rs.as_set() == {("one",), ("two",)}

    def test_union_all_keeps_duplicates(self, db):
        rs = db.execute(
            "select grp from t where k = 1 union all "
            "select grp from t where k = 2")
        assert rs.rows == [("a",), ("a",)]

    def test_union_distinct_dedupes(self, db):
        rs = db.execute(
            "select grp from t where k = 1 union "
            "select grp from t where k = 2")
        assert rs.rows == [("a",)]


class TestExplainAndMetrics:
    def test_explain_reports_cost_and_text(self, db):
        explained = db.explain("select k from t where k < 3")
        assert explained.estimated_cost > 0
        assert "Project" in explained.text

    def test_index_used_for_range(self, db):
        db.create_index("t", "k")
        explained = db.explain("select k from t where k <= 2")
        assert "IndexRangeScan" in explained.text

    def test_index_skipped_when_unselective(self, db):
        db.create_index("t", "k")
        explained = db.explain("select k from t where k <= 1000")
        assert "IndexRangeScan" not in explained.text

    def test_metrics_counts_rows(self, db):
        _, metrics = db.execute_with_metrics("select k from t")
        assert metrics.rows_emitted > 0
        assert metrics.operators >= 2

    def test_window_sort_counted(self, db):
        _, metrics = db.execute_with_metrics(
            "select max(v) over (partition by grp order by k asc) from t")
        assert metrics.sort_operators == 1
        assert metrics.rows_sorted == 5


class TestResultSet:
    def test_to_dicts(self, db):
        dicts = db.execute("select k, grp from t where k = 1").to_dicts()
        assert dicts == [{"k": 1, "grp": "a"}]

    def test_scalar_requires_1x1(self, db):
        with pytest.raises(ValueError):
            db.execute("select k from t").scalar()

    def test_pretty_renders(self, db):
        text = db.execute("select k from t order by k asc").pretty(limit=2)
        assert "more rows" in text


class TestExplainAnalyze:
    def test_actual_rows_reported(self, db):
        explained = db.explain_analyze("select k from t where k <= 2")
        assert "actual rows=2" in explained.text

    def test_plain_explain_has_no_actuals(self, db):
        explained = db.explain("select k from t")
        assert "actual rows" not in explained.text
