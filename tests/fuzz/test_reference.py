"""The reference evaluator: independence, semantics, and agreement.

``repro.fuzz.reference`` is the tuple-at-a-time answer every executor
comparison is made against, so three things are pinned here: it shares
no code with what it checks (an AST test over its imports), it gets the
SQL corner cases right on its own (hand-computed examples), and the
executor agrees with it over random data at several batch sizes (a
property test the nightly job runs at 2000 examples).
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.fuzz import reference
from repro.minidb import Database, SqlType, TableSchema
from repro.minidb.result import ResultSet
from repro.minidb.vector import forced_batch_size
from repro.rewrite.engine import DeferredCleansingEngine
from repro.sqlts.registry import RuleRegistry

#: What the reference may not import: the code it is the check on.
FORBIDDEN = ("repro.minidb.plan.physical", "repro.minidb.plan.window",
             "repro.minidb.vector", "repro.minidb.optimizer")


def test_reference_imports_nothing_it_checks():
    source = Path(reference.__file__).read_text(encoding="utf-8")
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(f"{node.module}.{alias.name}"
                            for alias in node.names)
    leaks = sorted(name for name in imported
                   for forbidden in FORBIDDEN
                   if name == forbidden or name.startswith(forbidden + "."))
    assert not leaks, f"reference.py imports executor code: {leaks}"


@pytest.fixture
def db():
    database = Database()
    database.create_table("a", TableSchema.of(
        ("k", SqlType.INTEGER), ("x", SqlType.VARCHAR)))
    database.load("a", [(1, "one"), (2, "two"), (None, "nul"), (3, "three")])
    database.create_table("b", TableSchema.of(
        ("k", SqlType.INTEGER), ("y", SqlType.VARCHAR)))
    database.load("b", [(1, "uno"), (1, "ein"), (None, "nix")])
    return database


class TestSemantics:
    def test_left_join_pads_and_null_keys_never_match(self, db):
        rows = reference.execute(
            db, "select a.x, b.y from a left join b on a.k = b.k")
        assert rows == [("one", "uno"), ("one", "ein"), ("two", None),
                        ("nul", None), ("three", None)]

    def test_not_in_with_a_null_member_selects_nothing(self, db):
        assert reference.execute(
            db, "select x from a where k not in (select k from b)") == []
        assert reference.execute(
            db, "select x from a where k in (select k from b)") == [("one",)]

    def test_global_aggregate_over_no_rows_is_one_row(self, db):
        assert reference.execute(
            db, "select count(*) as n, sum(k) as s, max(x) as m from a "
                "where k > 99") == [(0, None, None)]

    def test_grouping_distinct_and_null_group(self, db):
        rows = reference.execute(
            db, "select b.k, count(*) as n, count(distinct b.y) as d "
                "from b group by b.k")
        assert rows == [(1, 2, 2), (None, 1, 1)]

    def test_union_and_union_all(self, db):
        sql = "select k from a where k < 3 {op} select k from b"
        assert sorted(reference.execute(db, sql.format(op="union all")),
                      key=repr) == sorted([(1,), (2,), (1,), (1,), (None,)],
                                          key=repr)
        assert reference.execute(db, sql.format(op="union")) \
            == [(1,), (2,), (None,)]

    def test_sort_limit_null_placement(self, db):
        assert reference.execute(
            db, "select k from a order by k desc limit 3") \
            == [(3,), (2,), (1,)]
        assert reference.execute(db, "select k from a order by k limit 2") \
            == [(None,), (1,)]

    def test_window_functions(self, db):
        rows = reference.execute(
            db, "select k, row_number() over (order by k) as rn, "
                "lag(k) over (order by k) as lg, "
                "sum(k) over (order by k rows between 1 preceding and "
                "current row) as s from a")
        assert rows == [(None, 1, None, None), (1, 2, None, 1),
                        (2, 3, 1, 3), (3, 4, 2, 5)]

    def test_cleansed_without_rules_is_the_plain_query(self, db):
        engine = DeferredCleansingEngine(db, RuleRegistry(db))
        assert reference.cleansed(engine, "select x from a where k = 2") \
            == [("two",)]


# ----------------------------------------------------------------------
# Property: the executor answers the reference's row bag.
# ----------------------------------------------------------------------

FACT = TableSchema.of(("g", SqlType.VARCHAR), ("t", SqlType.INTEGER),
                      ("v", SqlType.INTEGER))
DIM = TableSchema.of(("g", SqlType.VARCHAR), ("w", SqlType.INTEGER))

fact_rows = st.lists(
    st.tuples(st.sampled_from(["a", "b", "c", None]),
              st.one_of(st.none(), st.integers(0, 9)),
              st.one_of(st.none(), st.integers(-5, 5))),
    max_size=20)
dim_rows = st.lists(
    st.tuples(st.sampled_from(["a", "b", "d", None]),
              st.one_of(st.none(), st.integers(-3, 3))),
    max_size=6)

#: One statement per operator family the executor implements: scans and
#: filters, projections, hash / nested-loop / left / semi joins,
#: grouping, DISTINCT, UNION, sort + limit and windows.
QUERIES = [
    "select g, v from f where t >= {c} and v is not null",
    "select g, t + v as s, case when v < 0 then 'neg' else g end as c "
    "from f",
    "select f.g, f.v, d.w from f, d where f.g = d.g and f.t <= {c}",
    "select f.t, d.w from f, d where f.v < d.w",
    "select f.g, f.t, d.w from f left join d on f.g = d.g and d.w > {c}",
    "select g, t from f where g in (select g from d where w >= 0)",
    "select g, t from f where g not in (select g from d)",
    "select g, count(*) as n, sum(v) as s, min(t) as lo, "
    "count(distinct v) as dv from f group by g",
    "select distinct g, v from f",
    "select g from f where t < {c} union select g from d",
    "select t, v from f order by v desc, t limit {c}",
    "select g, t, max(v) over (partition by g order by t "
    "range between 2 preceding and 1 following) as m, "
    "lead(v) over (partition by g order by t) as nx from f",
]


@given(fact=fact_rows, dim=dim_rows, index=st.integers(0, len(QUERIES) - 1),
       constant=st.integers(0, 9))
def test_executor_matches_reference(fact, dim, index, constant):
    db = Database()
    db.create_table("f", FACT)
    db.load("f", fact)
    db.create_table("d", DIM)
    db.load("d", dim)
    db.create_index("f", "t")
    sql = QUERIES[index].format(c=constant)
    expected = ResultSet([], reference.execute(db, sql)).canonical()
    for size in (1, 7, 1024):
        with forced_batch_size(size):
            db.plan_cache.clear()
            assert db.execute(sql).canonical() == expected, size
