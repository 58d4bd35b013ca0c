"""Figure-4 analysis tests: context conditions, ec assembly, residuals."""

import pytest

from repro.minidb.sqlparse import parse_expression
from repro.rewrite.expanded import FAULT_ENV, analyze_expanded, analyze_rule
from repro.sqlts import parse_rule

READS_COLUMNS = {"epc", "rtime", "reader", "biz_loc", "biz_step"}

READER = parse_rule("""
    DEFINE reader_rule ON caser CLUSTER BY epc SEQUENCE BY rtime
    AS (A, *B) WHERE B.reader = 'readerX' AND B.rtime - A.rtime < 600
    ACTION DELETE A""")

DUPLICATE = parse_rule("""
    DEFINE duplicate_rule ON caser CLUSTER BY epc SEQUENCE BY rtime
    AS (A, B) WHERE A.biz_loc = B.biz_loc AND B.rtime - A.rtime < 300
    ACTION DELETE B""")

CYCLE = parse_rule("""
    DEFINE cycle_rule ON caser CLUSTER BY epc SEQUENCE BY rtime
    AS (A, B, C) WHERE A.biz_loc = C.biz_loc AND A.biz_loc != B.biz_loc
    ACTION DELETE B""")

REPLACING = parse_rule("""
    DEFINE replacing_rule ON caser CLUSTER BY epc SEQUENCE BY rtime
    AS (A, B) WHERE A.biz_loc = 'l2' AND B.biz_loc = 'la'
      AND B.rtime - A.rtime < 1200
    ACTION MODIFY A.biz_loc = 'l1'""")


def s(*texts):
    return [parse_expression(text) for text in texts]


class TestPerRule:
    def test_reader_rule_upper_query(self):
        analysis = analyze_rule(READER, s("rtime <= 1000"), READS_COLUMNS)
        assert analysis.feasible
        rendered = {c.to_sql() for c in analysis.context_conditions["b"]}
        assert "(rtime < 1600)" in rendered
        assert "(reader = 'readerX')" in rendered

    def test_duplicate_rule_upper_query(self):
        analysis = analyze_rule(DUPLICATE, s("rtime <= 1000"), READS_COLUMNS)
        assert {c.to_sql() for c in analysis.context_conditions["a"]} \
            == {"(rtime <= 1000)"}

    def test_duplicate_rule_lower_query(self):
        analysis = analyze_rule(DUPLICATE, s("rtime >= 1000"), READS_COLUMNS)
        assert "(rtime > 700)" in {
            c.to_sql() for c in analysis.context_conditions["a"]}

    def test_cycle_rule_infeasible_both_directions(self):
        for predicate in ("rtime <= 1000", "rtime >= 1000"):
            analysis = analyze_rule(CYCLE, s(predicate), READS_COLUMNS)
            assert not analysis.feasible

    def test_replacing_rule_matches_table1(self):
        analysis = analyze_rule(REPLACING, s("rtime <= 1000"), READS_COLUMNS)
        assert {c.to_sql() for c in analysis.context_conditions["b"]} \
            == {"(rtime < 2200)"}

    def test_rule_created_columns_blocked(self):
        r2 = parse_rule("""
            DEFINE r2 ON caser CLUSTER BY epc SEQUENCE BY rtime
            AS (A, *B) WHERE A.is_pallet = 0 OR
                (A.has_case_nearby = 0 AND B.has_case_nearby = 1)
            ACTION KEEP A""")
        upper = analyze_rule(r2, s("rtime <= 1000"), READS_COLUMNS)
        assert not upper.feasible  # B unbounded above; flag not in R
        lower = analyze_rule(r2, s("rtime >= 1000"), READS_COLUMNS)
        assert lower.feasible
        assert {c.to_sql() for c in lower.context_conditions["b"]} \
            == {"(rtime >= 1000)"}

    def test_no_context_references_is_trivially_feasible(self):
        solo = parse_rule("""
            DEFINE solo ON caser CLUSTER BY epc SEQUENCE BY rtime
            AS (A) WHERE A.biz_loc = 'bad' ACTION DELETE A""")
        analysis = analyze_rule(solo, s("rtime <= 10"), READS_COLUMNS)
        assert analysis.feasible
        assert analysis.context_conditions == {}


class TestAssembly:
    def test_single_rule_ec_factored_bound(self):
        analysis = analyze_expanded([READER], s("rtime <= 1000"),
                                    READS_COLUMNS)
        assert analysis.feasible
        top = [c.to_sql() for c in analysis.ec_conjuncts]
        # A weaker top-level rtime bound lets the planner use the index.
        assert top[0] == "(rtime < 1600)"
        assert any(" OR " in text for text in top)

    def test_multi_rule_or_of_contexts(self):
        analysis = analyze_expanded([READER, DUPLICATE],
                                    s("rtime <= 1000"), READS_COLUMNS)
        assert analysis.feasible
        assert analysis.cc is not None
        assert analysis.cc.to_sql().count("OR") >= 1

    def test_any_infeasible_rule_blocks_expanded(self):
        analysis = analyze_expanded([READER, CYCLE],
                                    s("rtime <= 1000"), READS_COLUMNS)
        assert not analysis.feasible
        assert analysis.ec is None

    def test_residual_keeps_uncovered_conjuncts(self):
        analysis = analyze_expanded([READER], s("rtime <= 1000",
                                                "biz_step = 's9'"),
                                    READS_COLUMNS)
        rendered = {c.to_sql() for c in analysis.residual}
        assert "(rtime <= 1000)" in rendered
        assert "(biz_step = 's9')" in rendered

    def test_residual_drops_covered_unmodified_conjunct(self):
        # The duplicate rule derives exactly the query bound, so it is
        # covered by every context disjunct and can be dropped from s'.
        analysis = analyze_expanded([DUPLICATE], s("rtime <= 1000"),
                                    READS_COLUMNS)
        assert analysis.residual == []

    def test_residual_kept_when_rule_modifies_column(self):
        analysis = analyze_expanded(
            [REPLACING], s("rtime <= 1000", "biz_loc = 'l1'"),
            READS_COLUMNS)
        rendered = {c.to_sql() for c in analysis.residual}
        assert "(biz_loc = 'l1')" in rendered

    def test_no_rules_degenerates_to_s(self):
        analysis = analyze_expanded([], s("rtime <= 1000"), READS_COLUMNS)
        assert analysis.feasible
        assert [c.to_sql() for c in analysis.ec_conjuncts] \
            == ["(rtime <= 1000)"]

    def test_subquery_in_s_excluded_from_ec_or(self):
        analysis = analyze_expanded(
            [READER], s("rtime <= 1000", "epc in (select e from x)"),
            READS_COLUMNS)
        assert analysis.feasible
        for conjunct in analysis.ec_conjuncts:
            assert "SELECT" not in conjunct.to_sql().split("OR")[0] \
                or " OR " not in conjunct.to_sql()


class TestFaultDrillsAreSeparable:
    """``REPRO_FUZZ_INJECT_BUG`` names one layer's drill at a time: only
    the expanded drill's own names may drop the context conditions."""

    @pytest.mark.parametrize("name", ["encode", "storage", "no-such-drill"])
    def test_other_drills_leave_context_conditions(self, monkeypatch, name):
        clean = analyze_expanded([READER, DUPLICATE], s("rtime <= 1000"),
                                 READS_COLUMNS)
        monkeypatch.setenv(FAULT_ENV, name)
        drilled = analyze_expanded([READER, DUPLICATE], s("rtime <= 1000"),
                                   READS_COLUMNS)
        assert drilled.cc is not None
        assert drilled.cc.to_sql() == clean.cc.to_sql()
        assert [c.to_sql() for c in drilled.ec_conjuncts] \
            == [c.to_sql() for c in clean.ec_conjuncts]

    def test_own_name_drops_them(self, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "expanded")
        drilled = analyze_expanded([READER, DUPLICATE], s("rtime <= 1000"),
                                   READS_COLUMNS)
        assert drilled.cc is None
