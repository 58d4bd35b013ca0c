"""Tests for rewritten-SQL emission and the cleansing impact report."""

import pytest

from repro.errors import RewriteError
from repro.rewrite import DeferredCleansingEngine
from repro.rewrite.report import cleansing_report
from repro.rewrite.sqlgen import rewritten_sql
from repro.sqlts import RuleRegistry
from tests.conftest import make_reads_db

READER = """
DEFINE rdr ON r CLUSTER BY epc SEQUENCE BY rtime
AS (A, *B) WHERE B.reader = 'rx' AND B.rtime - A.rtime < 10 mins
ACTION DELETE A
"""

DUPLICATE = """
DEFINE dup ON r CLUSTER BY epc SEQUENCE BY rtime
AS (A, B) WHERE A.biz_loc = B.biz_loc AND B.rtime - A.rtime < 5 mins
ACTION DELETE B
"""

REPLACING = """
DEFINE rep ON r CLUSTER BY epc SEQUENCE BY rtime
AS (A, B) WHERE A.biz_loc = 'l2' AND B.biz_loc = 'la'
  AND B.rtime - A.rtime < 20 mins
ACTION MODIFY A.biz_loc = 'l1'
"""

ROWS = [
    ("e1", 0, "r0", "l2", "s"),
    ("e1", 60, "r0", "la", "s"),
    ("e1", 120, "r0", "la", "s"),      # duplicate of previous
    ("e1", 900, "r0", "lb", "s"),
    ("e2", 0, "r0", "lc", "s"),
    ("e2", 100, "rx", "ld", "s"),      # deletes e2@0 via reader rule
    ("e3", 0, "r0", "le", "s"),
]


@pytest.fixture
def setup():
    db = make_reads_db(ROWS)
    registry = RuleRegistry(db)
    for text in (READER, DUPLICATE, REPLACING):
        registry.define(text)
    return db, registry


class TestRewrittenSql:
    @pytest.mark.parametrize("strategy", ["naive", "expanded", "joinback"])
    def test_emitted_sql_matches_engine(self, setup, strategy):
        db, registry = setup
        engine = DeferredCleansingEngine(db, registry)
        query = "select epc, biz_loc from r where rtime <= 400"
        sql = rewritten_sql(db, registry, query, strategy)
        via_sql = db.execute(sql).as_set()
        via_engine = engine.execute(query, strategies={strategy}).as_set()
        assert via_sql == via_engine

    def test_emitted_sql_is_self_contained(self, setup):
        db, registry = setup
        sql = rewritten_sql(db, registry,
                            "select epc from r where rtime <= 400",
                            "expanded")
        assert "{input}" not in sql
        assert sql.count("OVER") >= 3  # one window block per rule

    def test_query_without_rules_passes_through(self, setup):
        db, registry = setup
        db.create_table("clean", db.table("r").schema)
        sql = rewritten_sql(db, registry, "select epc from clean")
        assert sql.strip().lower().startswith("select epc from clean")

    def test_expanded_infeasible_raises(self, setup):
        db, registry = setup
        registry.define("""
            DEFINE cyc ON r CLUSTER BY epc SEQUENCE BY rtime
            AS (A, B, C) WHERE A.biz_loc = C.biz_loc
              AND A.biz_loc != B.biz_loc
            ACTION DELETE B""")
        with pytest.raises(RewriteError, match="infeasible"):
            rewritten_sql(db, registry,
                          "select epc from r where rtime <= 400",
                          "expanded")

    def test_unknown_strategy_rejected(self, setup):
        db, registry = setup
        with pytest.raises(RewriteError, match="unknown strategy"):
            rewritten_sql(db, registry, "select epc from r", "psychic")

    def test_join_query_emission(self, setup):
        db, registry = setup
        _add_locs(db)
        engine = DeferredCleansingEngine(db, registry)
        query = ("select r.epc, locs.site from r, locs "
                 "where r.biz_loc = locs.gln and r.rtime <= 400")
        sql = rewritten_sql(db, registry, query, "joinback")
        assert db.execute(sql).as_set() == \
            engine.execute(query, strategies={"joinback"}).as_set()

    @pytest.mark.parametrize("strategy", ["naive", "joinback"])
    def test_rule_table_inside_in_subquery_is_cleansed(self, setup,
                                                       strategy):
        db, registry = setup
        _add_locs(db)
        engine = DeferredCleansingEngine(db, registry)
        query = "select gln from locs where gln in (select biz_loc from r)"
        sql = rewritten_sql(db, registry, query, strategy)
        # Uncleansed, the query answers l2 and lc too.
        expected = {("l1",), ("la",), ("lb",), ("ld",), ("le",)}
        assert engine.execute(query).as_set() == expected
        assert db.execute(sql).as_set() == expected

    def test_two_rule_governed_tables_print_naive_only_plan(self, setup):
        db, registry = setup
        db.create_table("r2", db.table("r").schema)
        db.load("r2", ROWS)
        registry.define(DUPLICATE.replace("dup ON r", "dup2 ON r2"))
        engine = DeferredCleansingEngine(db, registry)
        query = ("select r.epc, r2.rtime from r, r2 "
                 "where r.epc = r2.epc and r.rtime = r2.rtime")
        assert engine.rewrite(query).strategy == "naive"
        sql = rewritten_sql(db, registry, query)
        assert db.execute(sql).as_set() == engine.execute(query).as_set()


def _add_locs(db):
    from repro.minidb import SqlType, TableSchema
    db.create_table("locs", TableSchema.of(
        ("gln", SqlType.VARCHAR), ("site", SqlType.VARCHAR)))
    db.load("locs", [("l1", "sA"), ("l2", "sA"), ("la", "sB"),
                     ("lb", "sB"), ("lc", "sC"), ("ld", "sC"),
                     ("le", "sC")])


class TestCleansingReport:
    def test_stepwise_accounting(self, setup):
        db, registry = setup
        impacts = cleansing_report(db, registry, "r")
        by_name = {impact.rule_name: impact for impact in impacts}
        assert list(by_name) == ["rdr", "dup", "rep"]
        assert by_name["rdr"].rows_removed == 1   # e2@0
        assert by_name["dup"].rows_removed == 1   # e1@120
        assert by_name["rep"].rows_removed == 0
        assert by_name["rep"].rows_modified == 1  # e1@0 relocated

    def test_rows_flow_between_rules(self, setup):
        db, registry = setup
        impacts = cleansing_report(db, registry, "r")
        for previous, following in zip(impacts, impacts[1:]):
            assert following.rows_in == previous.rows_out

    def test_describe_is_readable(self, setup):
        db, registry = setup
        impacts = cleansing_report(db, registry, "r")
        text = impacts[0].describe()
        assert "rdr" in text and "removed 1" in text

    def test_report_on_generated_data_with_view_rule(self, dirty_bench):
        impacts = cleansing_report(dirty_bench.database,
                                   dirty_bench.registry, "caser")
        assert len(impacts) == 6
        by_name = {impact.rule_name: impact for impact in impacts}
        # r1 flags pallet ghosts (modifies, removes nothing).
        assert by_name["missing_rule_r1"].rows_removed == 0
        assert by_name["missing_rule_r1"].rows_modified > 0
        # r2 drops most ghost rows (keeps only compensating ones).
        assert by_name["missing_rule_r2"].rows_removed > 0
        # Every delete-style rule removed something on 20% dirty data.
        for name in ("reader_rule", "duplicate_rule", "cycle_rule"):
            assert by_name[name].rows_removed > 0, name
