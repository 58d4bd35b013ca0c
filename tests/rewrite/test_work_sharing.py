"""Work-level assertions behind the paper's performance claims.

These tests pin the *mechanisms* (sorts shared, rows reduced), not wall
time, so they are stable on any machine.
"""

import pytest


@pytest.fixture(scope="module")
def bench(request):
    from repro.datagen import GeneratorConfig
    from repro.workloads import Workbench

    return Workbench.create(
        GeneratorConfig(scale=4, anomaly_percent=10.0, stores=6,
                        warehouses=3, distribution_centers=2,
                        locations_per_site=8, products=30,
                        manufacturers=5),
        rule_names=("reader", "duplicate", "replacing"))


class TestSortSharing:
    def test_three_rules_plus_query_share_one_sort(self, bench):
        """§6.2/§6.3: the ordering requirement of all rules and q1's OLAP
        is identical, so a single sort feeds the whole pipeline."""
        sql = bench.q1(0.10)
        _, metrics, _ = bench.engine.execute_with_metrics(
            sql, strategies={"expanded"})
        assert metrics.sort_operators == 1

    def test_disabling_order_sharing_adds_sorts(self, bench):
        from repro.minidb import PlannerOptions
        from repro.minidb.engine import ExecutionMetrics

        result = bench.engine.rewrite(bench.q1(0.10),
                                      strategies={"expanded"})
        sorts = {}
        for sharing in (True, False):
            plan = bench.database.plan(
                result.chosen.logical,
                PlannerOptions(order_sharing=sharing))
            list(plan.rows())
            sorts[sharing] = ExecutionMetrics.from_plan(plan).sort_operators
        assert sorts[True] == 1 < sorts[False]

    def test_naive_also_shares_but_sorts_everything(self, bench):
        sql = bench.q1(0.10)
        _, expanded, _ = bench.engine.execute_with_metrics(
            sql, strategies={"expanded"})
        _, naive, _ = bench.engine.execute_with_metrics(
            sql, strategies={"naive"})
        assert naive.sort_operators == 1
        assert naive.rows_sorted > 3 * expanded.rows_sorted

    def test_joinback_sorts_only_relevant_sequences(self, bench):
        sql = bench.q1(0.10)
        _, joinback, _ = bench.engine.execute_with_metrics(
            sql, strategies={"joinback"})
        _, naive, _ = bench.engine.execute_with_metrics(
            sql, strategies={"naive"})
        assert joinback.rows_sorted < naive.rows_sorted


class TestRowReduction:
    def test_expanded_touches_fraction_of_table(self, bench):
        sql = bench.q1(0.10)
        _, metrics, result = bench.engine.execute_with_metrics(
            sql, strategies={"expanded"})
        table_rows = len(bench.database.table("caser"))
        # The ec scan brings in roughly the query slice plus context.
        scan = list(result.physical.walk())[-1]
        assert scan.actual_rows < 0.5 * table_rows

    def test_naive_touches_whole_table(self, bench):
        sql = bench.q1(0.10)
        _, _, result = bench.engine.execute_with_metrics(
            sql, strategies={"naive"})
        table_rows = len(bench.database.table("caser"))
        scans = [node for node in result.physical.walk()
                 if node.label().startswith("SeqScan(caser)")]
        assert scans and scans[0].actual_rows == table_rows


class TestJoinBack:
    def test_ec_reduces_joined_back_rows(self, bench):
        """§5.3's improved join-back pulls back only the rows passing
        ec; the plain variant pulls back whole sequences."""
        from repro.rewrite.strategies import joinback_subplan

        result = bench.engine.rewrite(bench.q1(0.10),
                                      strategies={"joinback"})
        rules = bench.registry.rules_for("caser")

        def rows_with(ec):
            subplan = joinback_subplan(
                bench.database, bench.registry, rules, "caser",
                result.context.s_conjuncts, ec)
            return len(bench.database.execute(subplan))

        assert 0 < rows_with(result.analysis.ec_conjuncts) < rows_with(None)

    def test_dimension_pushdown_candidates_are_ranked(self, bench):
        """Join-back's enumeration covers push-none up to push-all
        dimensions, expanded is one candidate with its dimension joins
        after cleansing, and the cost minimum is the one chosen."""
        result = bench.engine.rewrite(bench.q2(0.40))
        labels = [candidate.label for candidate in result.candidates]
        assert sorted(labels) == ["expanded", "joinback", "joinback+1dims",
                                  "joinback+2dims", "naive"]
        best = min(result.candidates, key=lambda c: c.cost)
        assert result.chosen.label == best.label


class TestPersistedTemplates:
    def test_persisted_template_matches_plan_transform(self, bench):
        """Architecture steps 2 and 4: the SQL template stored in the
        rules table computes the same rows as the Φ_C plan transform."""
        from repro.minidb.plan.logical import LogicalScan
        from repro.sqlts.registry import RULES_TABLE

        db = bench.database
        compiled = bench.registry.rule("duplicate_rule")
        rows = db.execute(
            f"select sql_template from {RULES_TABLE} "
            f"where rule_name = 'duplicate_rule'")
        template = rows.scalar()
        sub = db.execute(
            "select epc, rtime, reader, biz_loc, biz_step from caser "
            "limit 500")
        db.create_table("_tpl_probe", db.table("caser").schema)
        try:
            db.table("_tpl_probe").bulk_load(sub.rows)
            db.analyze("_tpl_probe")
            via_template = db.execute(template.format(input="_tpl_probe"))
            via_plan = db.execute(
                compiled.apply(LogicalScan(db.table("_tpl_probe"))))
            # The registry persists the template over the rule's
            # required columns; compare on those.
            template_cols = set(via_template.columns)
            positions = [via_template.columns.index(c)
                         for c in sorted(template_cols)]
            plan_positions = [via_plan.columns.index(c)
                              for c in sorted(template_cols)]
            left = sorted(tuple(row[i] for i in positions)
                          for row in via_template.rows)
            right = sorted(tuple(row[i] for i in plan_positions)
                           for row in via_plan.rows)
            assert left == right
        finally:
            db.drop_table("_tpl_probe")
