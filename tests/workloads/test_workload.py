"""Workload tests: selectivity pickers, queries, rules, the Workbench."""

import pytest

from repro.errors import DataGenError
from repro.minidb.sqlparse import parse_select
from repro.workloads import (
    q1_sql,
    q2_prime_sql,
    q2_sql,
    rule_texts,
    timestamp_for_fraction_above,
    timestamp_for_fraction_below,
)
from repro.workloads.rules import STANDARD_RULE_ORDER


class TestSelectivityPickers:
    TIMES = list(range(0, 1000, 10))

    def test_below_hits_fraction(self):
        t = timestamp_for_fraction_below(self.TIMES, 0.10)
        below = sum(1 for x in self.TIMES if x <= t)
        assert below == pytest.approx(0.10 * len(self.TIMES), abs=1)

    def test_above_hits_fraction(self):
        t = timestamp_for_fraction_above(self.TIMES, 0.25)
        above = sum(1 for x in self.TIMES if x >= t)
        assert above == pytest.approx(0.25 * len(self.TIMES), abs=1)

    def test_full_fraction(self):
        assert timestamp_for_fraction_below(self.TIMES, 1.0) \
            == max(self.TIMES)

    def test_bad_fraction_rejected(self):
        with pytest.raises(DataGenError):
            timestamp_for_fraction_below(self.TIMES, 0.0)
        with pytest.raises(DataGenError):
            timestamp_for_fraction_above(self.TIMES, 1.5)

    def test_empty_input_rejected(self):
        with pytest.raises(DataGenError):
            timestamp_for_fraction_below([], 0.5)


class TestQueryTexts:
    def test_queries_parse(self):
        for sql in (q1_sql(1000), q2_sql(1000), q2_prime_sql(1000)):
            parse_select(sql)

    def test_q1_mentions_window(self):
        assert "over" in q1_sql(5).lower()

    def test_q2_joins_four_dimensions(self):
        stmt = parse_select(q2_sql(5))
        assert len(stmt.from_refs) == 5  # caseR + 4 dims

    def test_q2_prime_swaps_predicate(self):
        assert "site = " not in q2_prime_sql(5)
        assert "type = " in q2_prime_sql(5)


class TestWorkbench:
    def test_rules_compile_for_generated_data(self, clean_bench):
        texts = rule_texts(clean_bench.data)
        assert set(texts) == set(STANDARD_RULE_ORDER)
        assert len(clean_bench.registry) == 6  # missing splits into r1+r2

    def test_rule_order_is_table1_order(self, clean_bench):
        names = [c.name for c in clean_bench.registry.rules_for("caser")]
        assert names == ["reader_rule", "duplicate_rule", "replacing_rule",
                         "cycle_rule", "missing_rule_r1", "missing_rule_r2"]

    def test_q1_selectivity_is_respected(self, clean_bench):
        sql = clean_bench.q1(0.10)
        total = len(clean_bench.data.case_reads)
        t1 = int(sql.split("rtime <= ")[1].split(")")[0])
        selected = sum(1 for row in clean_bench.data.case_reads
                       if row[1] <= t1)
        assert selected / total == pytest.approx(0.10, abs=0.01)

    def test_with_rules_subset(self, clean_bench):
        subset = clean_bench.with_rules(("reader", "duplicate"))
        assert len(subset.registry) == 2
        assert subset.database is clean_bench.database

    def test_default_site_exists(self, clean_bench):
        """q2's default site is a real site with reads in its window."""
        sites = {row[1] for row in clean_bench.data.location_rows}
        t2 = timestamp_for_fraction_above(clean_bench.case_rtimes(), 0.2)
        site = clean_bench.busiest_site(t2)
        assert site in sites
        assert f"l.site = '{site}'" in clean_bench.q2(0.2)

    def test_clean_data_unchanged_by_cleansing(self, clean_bench):
        """On anomaly-free data the rules must be (near) no-ops: no
        duplicates, no readerX, no cross reads, no cycles, no missing
        reads exist to correct."""
        engine = clean_bench.with_rules(
            ("reader", "duplicate", "replacing")).engine
        sql = clean_bench.q1(0.05)
        cleansed = engine.execute(sql, strategies={"expanded"}).as_set()
        raw = clean_bench.database.execute(sql).as_set()
        assert cleansed == raw


class TestDirtyWorkbench:
    @pytest.mark.parametrize("query_name", ["q1", "q2", "q2_prime"])
    def test_strategies_agree_on_generated_data(self, dirty_bench,
                                                query_name):
        bench = dirty_bench.with_rules(("reader", "duplicate", "replacing"))
        sql = getattr(bench, query_name)(0.08)
        naive = bench.engine.execute(sql, strategies={"naive"}).as_set()
        for strategy in ("expanded", "joinback"):
            got = bench.engine.execute(sql, strategies={strategy}).as_set()
            assert got == naive, (query_name, strategy)

    def test_five_rule_chain_agrees(self, dirty_bench):
        sql = dirty_bench.q1(0.08)
        naive = dirty_bench.engine.execute(
            sql, strategies={"naive"}).as_set()
        joinback = dirty_bench.engine.execute(
            sql, strategies={"joinback"}).as_set()
        assert joinback == naive

    def test_dirty_query_differs_from_cleansed(self, dirty_bench):
        """The motivation: anomalies visibly corrupt analytical answers."""
        sql = dirty_bench.q1(0.30)
        dirty = dirty_bench.database.execute(sql).as_set()
        cleansed = dirty_bench.engine.execute(
            sql, strategies={"joinback"}).as_set()
        assert dirty != cleansed

    def test_missing_rule_compensates_from_pallets(self, dirty_bench):
        """Cleansed data has more rows than dirty-minus-deletions thanks
        to pallet-based compensation of missing reads."""
        bench = dirty_bench
        with_missing = bench.engine.execute(
            "select count(*) from caser", strategies={"naive"}).scalar()
        without_missing = bench.with_rules(
            ("reader", "duplicate", "replacing", "cycle")).engine.execute(
            "select count(*) from caser", strategies={"naive"}).scalar()
        assert with_missing > without_missing
