"""Round trip of every candidate plan of the paper's pinned statements
through SQL text.

Each candidate the rewrite engine costs, printed by ``plan_sql``,
re-parsed and executed, must return the bag of rows of its own physical
plan; below an ORDER BY, the chosen candidate must keep its row order,
under minidb and under ``sqlite3``. The statements and data are
``test_golden_plans``'s.
"""

from __future__ import annotations

import re
import sqlite3
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


def test_printed_order_by_is_the_outermost_clause(paper):
    """The chosen ordered trace, printed, ends in its ``ORDER BY``, and
    an engine this repo did not write returns its rows in that order."""
    database, statements, engine_for = paper
    rules, sql = statements[ORDERED]
    plan = engine_for(rules).rewrite(sql).chosen.logical
    text = plan_sql(plan)
    assert re.search(r"\) _t\d+ ORDER BY _t\d+\.c0 DESC, _t\d+\.c1 ASC$",
                     text), text[-200:]
    connection = sqlite3.connect(":memory:")
    try:
        for table in database.catalog:
            connection.execute(f"CREATE TABLE {table.name} "
                               f"({', '.join(table.schema.names)})")
            slots = ", ".join("?" * len(table.schema))
            connection.executemany(
                f"INSERT INTO {table.name} VALUES ({slots})", table.rows)
        got = connection.execute(text).fetchall()
    finally:
        connection.close()
    expected = database.execute(text).rows
    assert len(got) > 1
    assert Counter(got) == Counter(expected)
    assert got == sorted(got, key=lambda row: (-row[0], row[1]))
