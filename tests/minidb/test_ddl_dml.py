"""DDL/DML statement tests (CREATE TABLE / CREATE INDEX / INSERT)."""

import pytest

from repro.errors import (
    CatalogError,
    PlanningError,
    SchemaError,
    SqlSyntaxError,
)
from repro.minidb import Database, SqlType
from repro.minidb.sqlparse import parse_sql
from repro.minidb.sqlparse.ast import (
    CreateIndexStmt,
    CreateTableStmt,
    InsertStmt,
    SelectStmt,
)


class TestParsing:
    def test_create_table(self):
        statement = parse_sql(
            "create table t (a integer, b varchar(50), c timestamp)")
        assert isinstance(statement, CreateTableStmt)
        assert statement.columns == [
            ("a", SqlType.INTEGER), ("b", SqlType.VARCHAR),
            ("c", SqlType.TIMESTAMP)]

    def test_type_synonyms(self):
        statement = parse_sql(
            "create table t (a int, b float, c text, d bool)")
        assert [sql_type for _, sql_type in statement.columns] == [
            SqlType.INTEGER, SqlType.DOUBLE, SqlType.VARCHAR,
            SqlType.BOOLEAN]

    def test_unknown_type_rejected(self):
        with pytest.raises(SqlSyntaxError, match="unknown type"):
            parse_sql("create table t (a blob)")

    def test_create_index_with_and_without_name(self):
        anonymous = parse_sql("create index on t (a)")
        named = parse_sql("create index idx_a on t (a)")
        assert isinstance(anonymous, CreateIndexStmt)
        assert anonymous.name is None
        assert named.name == "idx_a"

    def test_insert_multi_row(self):
        statement = parse_sql(
            "insert into t (a, b) values (1, 'x'), (2, 'y')")
        assert isinstance(statement, InsertStmt)
        assert len(statement.rows) == 2
        assert statement.columns == ["a", "b"]

    def test_select_still_dispatches(self):
        assert isinstance(parse_sql("select 1 as one from t"), SelectStmt)

    def test_round_trips(self):
        for sql in ("create table t (a integer)",
                    "create index on t (a)",
                    "insert into t values (1)"):
            statement = parse_sql(sql)
            assert parse_sql(statement.to_sql()).to_sql() \
                == statement.to_sql()


class TestExecution:
    def test_full_lifecycle(self):
        db = Database()
        db.run("create table events (id integer, name varchar)")
        result = db.run(
            "insert into events values (2, 'b'), (1, 'a'), (3, null)")
        assert result.rows == [(3,)]
        db.run("create index on events (id)")
        rows = db.run("select name from events where id <= 2 "
                      "order by id asc")
        assert rows.rows == [("a",), ("b",)]

    def test_insert_with_expressions(self):
        db = Database()
        db.run("create table t (a integer)")
        db.run("insert into t values (2 + 3), (10 * 2)")
        assert db.run("select a from t order by a asc").column("a") \
            == [5, 20]

    def test_insert_column_subset(self):
        db = Database()
        db.run("create table t (a integer, b varchar)")
        db.run("insert into t (b) values ('only-b')")
        assert db.run("select a, b from t").rows == [(None, "only-b")]

    def test_insert_arity_mismatch(self):
        db = Database()
        db.run("create table t (a integer, b varchar)")
        with pytest.raises(SchemaError):
            db.run("insert into t values (1)")

    def test_insert_values_cannot_reference_columns(self):
        db = Database()
        db.run("create table t (a integer, b integer)")
        with pytest.raises(PlanningError, match="column 'a'"):
            db.run("insert into t values (a, 1)")
        # A bad row anywhere in the statement inserts nothing.
        with pytest.raises(PlanningError, match="column 'b'"):
            db.run("insert into t values (1, 2), (3, b + 1)")
        assert db.run("select a from t").rows == []
        db.run("insert into t values (abs(-4), coalesce(null, 5))")
        assert db.run("select a, b from t").rows == [(4, 5)]

    def test_duplicate_table_rejected(self):
        db = Database()
        db.run("create table t (a integer)")
        with pytest.raises(CatalogError):
            db.run("create table t (a integer)")

    def test_stats_refresh_after_insert(self):
        db = Database()
        db.run("create table t (a integer)")
        db.run("insert into t values (1), (2)")
        assert db.stats.get("t").row_count == 2

    def test_order_by_hidden_column(self):
        db = Database()
        db.run("create table t (a integer, b varchar)")
        db.run("insert into t values (3, 'x'), (1, 'y'), (2, 'z')")
        rows = db.run("select b from t order by a desc")
        assert rows.rows == [("x",), ("z",), ("y",)]
        assert rows.columns == ["b"]

    def test_order_by_hidden_with_distinct_rejected(self):
        from repro.errors import PlanningError

        db = Database()
        db.run("create table t (a integer, b varchar)")
        with pytest.raises(PlanningError, match="DISTINCT"):
            db.run("select distinct b from t order by a asc")
