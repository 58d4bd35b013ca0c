"""Smoke tests for the experiment harness at tiny scale."""

import pytest

from repro.experiments import ExperimentSettings
from repro.experiments import fig7, fig8, fig9, plans, table1
from repro.experiments.common import run_variants, workbench_for
from repro.experiments.eager import run as run_eager

TINY = ExperimentSettings(scale=3, anomaly_percent=10.0)
#: Large enough for the generated topology to show the paper's shapes.
SMALL = ExperimentSettings(scale=8, anomaly_percent=10.0)


@pytest.fixture(scope="module")
def tiny_bench():
    return workbench_for(TINY, rule_names=("reader",))


class TestRunVariants:
    def test_all_variants_timed(self, tiny_bench):
        timings = run_variants(tiny_bench, tiny_bench.q1(0.20), "20%")
        assert set(timings.elapsed) == {"q", "q_e", "q_j", "q_n"}
        assert all(value >= 0 for value in timings.elapsed.values())
        assert timings.chosen is not None

    def test_infeasible_variant_skipped(self):
        bench = workbench_for(TINY)  # all five rules: expanded infeasible
        timings = run_variants(bench, bench.q1(0.20), "x")
        assert "q_e" not in timings.elapsed
        assert "q_j" in timings.elapsed

    def test_row_renders(self, tiny_bench):
        timings = run_variants(tiny_bench, tiny_bench.q1(0.20), "20%")
        row = timings.row()
        assert row.startswith("20%")

    def test_workbench_cache_reuses_database(self):
        first = workbench_for(TINY, rule_names=("reader",))
        second = workbench_for(TINY, rule_names=("reader", "duplicate"))
        assert first.database is second.database


class TestHarnesses:
    def test_fig7_structure(self):
        results = fig7.run(TINY, selectivities=(0.20,), queries=("q1",))
        assert list(results) == ["q1"]
        assert results["q1"][0].label == "20%"

    def test_fig8_structure(self):
        series = fig8.run(TINY, selectivities=(0.20,))
        assert len(series) == 1

    def test_fig8_predicates_differ_in_epc_reduction(self):
        """The mechanism behind Figure 8, as counts: q2's site predicate
        shrinks the relevant EPC set, q2''s type predicate barely does,
        so join-back has little to prune for q2'."""
        bench = workbench_for(SMALL, rule_names=("reader",))

        def distinct_epcs(sql):
            return bench.database.execute(sql).scalar()

        total = distinct_epcs("select count(distinct epc) from caser")
        by_site = distinct_epcs(
            "select count(distinct c.epc) from caser c, locs l "
            "where c.biz_loc = l.gln and "
            f"l.site = '{bench.busiest_site(0)}'")
        by_type = distinct_epcs(
            "select count(distinct c.epc) from caser c, steps s "
            "where c.biz_step = s.biz_step and s.type = 'type_03'")
        assert by_site < 0.5 * total
        assert by_type > 0.9 * total

    def test_q2_answers_at_every_figure_selectivity(self):
        """q2's default site has reads inside its own window, so the
        figures never time an empty answer (scale 24, as they run)."""
        bench = workbench_for(ExperimentSettings(scale=24),
                              rule_names=("reader",))
        for selectivity in (0.1, 0.2, 0.4, 0.6):
            rows = bench.engine.execute(bench.q2(selectivity),
                                        strategies={"naive"}).rows
            assert rows, selectivity

    def test_fig9_rules_structure(self):
        results = fig9.run_rules(TINY, queries=("q2",))
        assert len(results["q2"]) == 5
        # Expanded disappears from the fourth rule on.
        assert "q_e" in results["q2"][2].elapsed
        assert "q_e" not in results["q2"][3].elapsed

    def test_fig9_dirty_structure(self):
        results = fig9.run_dirty(TINY, queries=("q2",), levels=(10.0,))
        assert len(results["q2"]) == 1

    def test_plans_cover_all_five_figures(self):
        collected = plans.collect_plans(TINY)
        assert len(collected) == 5
        assert any("presorted" in text for text in collected.values())

    def test_table1_feasibility_structure(self):
        bench = workbench_for(TINY)
        rtimes = bench.case_rtimes()
        table = table1.table1_conditions(bench, min(rtimes), max(rtimes))
        assert table["cycle"] == {"q1": "{}", "q2": "{}"}
        assert table["missing"]["q1"] == "{}"

    def test_table1_derived_bounds(self):
        """The literal boundaries Table 1 reports for t1=5min, t2=10min,
        t3=20min — including the two cells where the paper's own table
        disagrees with its §6.1 settings (EXPERIMENTS.md errata)."""
        from repro.workloads import (
            timestamp_for_fraction_above,
            timestamp_for_fraction_below,
        )

        bench = workbench_for(TINY)
        rtimes = bench.case_rtimes()
        t1 = timestamp_for_fraction_below(rtimes, 0.10)
        t2 = timestamp_for_fraction_above(rtimes, 0.10)
        table = table1.table1_conditions(bench, t1, t2)
        assert table["missing"]["q2"] != "{}"
        assert f"rtime < {t1 + 600}" in table["reader"]["q1"]
        assert "readerX" in table["reader"]["q1"]
        assert f"rtime <= {t1}" in table["duplicate"]["q1"]
        assert f"rtime > {t2 - 300}" in table["duplicate"]["q2"]
        assert f"rtime < {t1 + 1200}" in table["replacing"]["q1"]
        assert f"rtime >= {t2}" in table["replacing"]["q2"]

    def test_eager_reports_break_even(self):
        results = run_eager(TINY, selectivity=0.20)
        assert results["materialize"] > 0
        assert results["break_even_queries"] > 0


class TestScorecard:
    def test_all_claims_pass_at_small_scale(self):
        from repro.experiments.summary import run_scorecard

        checks = run_scorecard(SMALL)
        timing_sensitive = {"S3 rewrites beat naive",
                            "S7 q2' erodes join-back advantage",
                            "S8 anomaly growth is mild"}
        for claim, passed in checks.items():
            if claim in timing_sensitive:
                continue  # wall-clock ratios: CI's nightly `summary` run
            assert passed, claim
