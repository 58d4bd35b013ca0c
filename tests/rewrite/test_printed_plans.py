"""Round trip of every candidate plan of the paper's pinned statements
through SQL text.

Each candidate the rewrite engine costs, printed by ``plan_sql``,
re-parsed and executed, must return the bag of rows of its own physical
plan; below an ORDER BY, the chosen candidate must keep its row order.
The statements and data are ``test_golden_plans``'s.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.datagen.generator import RFIDGen
from repro.datagen.loader import load_into_database
from repro.minidb import Database
from repro.minidb.plan.printer import plan_sql
from repro.minidb.sqlparse import parse_select
from repro.minidb.vector import materialize
from repro.rewrite import DeferredCleansingEngine
from repro.workloads import make_registry
from tests.rewrite.test_golden_plans import CONFIG, GOLDEN, _statements

#: No pinned statement orders its rows, so one ordered trace is added.
ORDERED = "trace_ordered"


@pytest.fixture(scope="module")
def paper():
    data = RFIDGen(CONFIG).generate()
    database = load_into_database(data, Database(storage="memory"))
    statements = {name: (rules, sql)
                  for name, rules, sql in _statements(data)}
    rules, sql = statements["trace_middle"]
    statements[ORDERED] = (rules, sql + " order by c.rtime desc, l.loc_desc")
    engines: dict[tuple[str, ...], DeferredCleansingEngine] = {}

    def engine_for(rules: tuple[str, ...]) -> DeferredCleansingEngine:
        if rules not in engines:
            engines[rules] = DeferredCleansingEngine(
                database, make_registry(None, data, rules))
        return engines[rules]

    yield database, statements, engine_for
    database.shutdown()


@pytest.mark.parametrize("name", [*sorted(GOLDEN), ORDERED])
def test_printed_candidates_return_their_plans_rows(paper, name):
    database, statements, engine_for = paper
    rules, sql = statements[name]
    result = engine_for(rules).rewrite(sql)
    ordered = bool(parse_select(sql).order_by)
    for candidate in result.candidates:
        expected = materialize(candidate.physical)
        got = database.execute(plan_sql(candidate.logical)).rows
        assert Counter(got) == Counter(expected), candidate.label
        if ordered and candidate is result.chosen:
            assert got == expected, candidate.label
