"""Join-back's dimension pushes: where they pay, and where they must not
go.

§5.3 lets join-back push a dimension join into the relevant-sequence
list as one more conjunct, ``K IN (SELECT Kd FROM D WHERE S_d)``. That
assumes cleansing never brings a row into a sequence the list missed. A
rule that reads a view breaks the assumption: the ``missing`` rule's
``case_with_pallet`` view supplies pallet-derived reads to case
sequences whose own reads never met the dimension predicate. So the
engine pushes no dimension when any rule reads a view. The expanded
rewrite pushes none at all (EXPERIMENTS.md, "Known deviations", 5).
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.experiments.common import ExperimentSettings, workbench_for
from repro.minidb.vector import materialize

#: q2' cells with all five rules where a pushed join-back candidate
#: answered differently from naive before view-input rules barred the
#: pushes, found by a scale search over scales 1-24 and selectivities
#: {0.1, 0.3, 0.6}. At (3, 0.6) and (4, 0.1) the engine chose the wrong
#: candidate; at (1, 0.6) it chose naive.
VIEW_INPUT_CELLS = [(1, 0.6), (3, 0.6), (4, 0.1)]


@pytest.mark.parametrize("scale, selectivity", VIEW_INPUT_CELLS)
def test_every_candidate_matches_naive_under_a_view_input_rule(
        scale, selectivity):
    bench = workbench_for(ExperimentSettings(scale=scale))
    sql = bench.q2_prime(selectivity)
    result = bench.engine.rewrite(sql)
    naive = Counter(bench.engine.execute(sql, strategies={"naive"}).rows)
    assert naive
    for candidate in result.candidates:
        assert Counter(materialize(candidate.physical)) == naive, \
            candidate.label
    assert sorted(candidate.label for candidate in result.candidates) \
        == ["joinback", "naive"]


def test_reader_rule_q2_is_answered_by_a_pushed_joinback():
    """The Figure 7(g) effect: with a selective site, the pushed
    sequence list sorts a small fraction of what expanded sorts."""
    bench = workbench_for(ExperimentSettings(scale=6),
                          rule_names=("reader",))
    # The paper's site, which few sequences pass: q2's default, the
    # busiest site of its window, prunes fewer.
    sql = bench.q2(0.40, site="distribution center 2")
    rows, metrics, result = bench.engine.execute_with_metrics(
        sql, strategies={"joinback"})
    assert result.chosen.label.startswith("joinback+")
    naive = bench.engine.execute(sql, strategies={"naive"})
    assert rows.rows and Counter(rows.rows) == Counter(naive.rows)
    _, expanded, _ = bench.engine.execute_with_metrics(
        sql, strategies={"expanded"})
    assert metrics.rows_sorted * 10 <= expanded.rows_sorted
