"""Property test: every rewrite strategy computes Q[C1..Cn] exactly.

Theorem 1 of the paper states the expanded rewrite preserves query
semantics; the join-back rewrite is argued correct in §5.3. This test
checks both empirically: for random reads tables, random subsets of the
rule archetypes (delete/keep/modify, singleton and set references,
bounded and unbounded), and random query predicates, the expanded and
join-back rewrites must return exactly the rows of the naive rewrite
(cleanse everything, then query).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RewriteError
from repro.minidb import Database, SqlType, TableSchema
from repro.rewrite import DeferredCleansingEngine
from repro.sqlts import RuleRegistry

SCHEMA = TableSchema.of(
    ("epc", SqlType.VARCHAR),
    ("rtime", SqlType.TIMESTAMP),
    ("reader", SqlType.VARCHAR),
    ("biz_loc", SqlType.VARCHAR),
)

RULES = {
    "duplicate": """
        DEFINE duplicate ON r CLUSTER BY epc SEQUENCE BY rtime
        AS (A, B) WHERE A.biz_loc = B.biz_loc AND B.rtime - A.rtime < 50
        ACTION DELETE B""",
    "duplicate_unbounded": """
        DEFINE duplicate_unbounded ON r CLUSTER BY epc SEQUENCE BY rtime
        AS (E, F) WHERE E.biz_loc = F.biz_loc
        ACTION DELETE F""",
    "reader": """
        DEFINE reader ON r CLUSTER BY epc SEQUENCE BY rtime
        AS (A, *B) WHERE B.reader = 'rx' AND B.rtime - A.rtime < 60
        ACTION DELETE A""",
    "cycle": """
        DEFINE cycle ON r CLUSTER BY epc SEQUENCE BY rtime
        AS (A, B, C) WHERE A.biz_loc = C.biz_loc AND A.biz_loc != B.biz_loc
        ACTION DELETE B""",
    "replacing": """
        DEFINE replacing ON r CLUSTER BY epc SEQUENCE BY rtime
        AS (A, B) WHERE A.biz_loc = 'l2' AND B.biz_loc = 'la'
          AND B.rtime - A.rtime < 80
        ACTION MODIFY A.biz_loc = 'l1'""",
    "keeper": """
        DEFINE keeper ON r CLUSTER BY epc SEQUENCE BY rtime
        AS (A, *B) WHERE B.rtime - A.rtime < 200
        ACTION KEEP A""",
}

ROW = st.tuples(
    st.sampled_from(["e1", "e2", "e3"]),
    st.integers(0, 400),
    st.sampled_from(["r0", "r1", "rx"]),
    st.sampled_from(["l1", "l2", "la", "lb"]),
)


def _unique_sequence_times(rows):
    seen = set()
    out = []
    for row in rows:
        if (row[0], row[1]) in seen:
            continue
        seen.add((row[0], row[1]))
        out.append(row)
    return out


PREDICATES = st.sampled_from([
    "rtime <= {t}",
    "rtime >= {t}",
    "rtime >= {t} and rtime <= {t2}",
    "rtime <= {t} and reader != 'r1'",
    "biz_loc = 'l1'",
    "",
])


@settings(max_examples=80, deadline=None)
@given(rows=st.lists(ROW, min_size=0, max_size=35)
       .map(_unique_sequence_times),
       rule_names=st.lists(st.sampled_from(sorted(RULES)), min_size=1,
                           max_size=3, unique=True),
       predicate=PREDICATES,
       t=st.integers(0, 400), t2=st.integers(0, 400))
def test_all_strategies_agree_with_naive(rows, rule_names, predicate, t, t2):
    db = Database()
    db.create_table("r", SCHEMA)
    db.load("r", rows)
    db.create_index("r", "rtime")
    registry = RuleRegistry()
    for name in rule_names:
        registry.define(RULES[name])
    engine = DeferredCleansingEngine(db, registry)
    where = f" where {predicate.format(t=t, t2=max(t, t2))}" if predicate \
        else ""
    sql = f"select epc, rtime, reader, biz_loc from r{where}"

    baseline = sorted(engine.execute(sql, strategies={"naive"}).rows)
    joinback = sorted(engine.execute(sql, strategies={"joinback"}).rows)
    assert joinback == baseline
    try:
        expanded = sorted(engine.execute(sql, strategies={"expanded"}).rows)
    except RewriteError:
        expanded = None  # infeasible: nothing to compare
    if expanded is not None:
        assert expanded == baseline
    # The cost-based choice must of course also be correct.
    chosen = sorted(engine.execute(sql).rows)
    assert chosen == baseline


@settings(max_examples=30, deadline=None)
@given(rows=st.lists(ROW, min_size=0, max_size=25)
       .map(_unique_sequence_times),
       t=st.integers(0, 400))
def test_join_query_strategies_agree(rows, t):
    """Same property with a dimension join on the reads table."""
    db = Database()
    db.create_table("r", SCHEMA)
    db.load("r", rows)
    db.create_index("r", "rtime")
    db.create_table("locdim", TableSchema.of(
        ("gln", SqlType.VARCHAR), ("site", SqlType.VARCHAR)))
    db.load("locdim", [("l1", "sA"), ("l2", "sA"), ("la", "sB"),
                       ("lb", "sB")])
    registry = RuleRegistry()
    registry.define(RULES["reader"])
    registry.define(RULES["duplicate"])
    engine = DeferredCleansingEngine(db, registry)
    sql = (f"select r.epc, r.rtime, locdim.site from r, locdim "
           f"where r.biz_loc = locdim.gln and locdim.site = 'sA' "
           f"and r.rtime <= {t}")
    baseline = sorted(engine.execute(sql, strategies={"naive"}).rows)
    for strategy in ("expanded", "joinback"):
        got = sorted(engine.execute(sql, strategies={strategy}).rows)
        assert got == baseline, strategy
    assert sorted(engine.execute(sql).rows) == baseline


# Bug A (ROADMAP item 1): the expanded condition is derived from s alone,
# so it drops a row that an earlier rule needs. With ``duplicate`` then
# ``reader``, the reproducer's naive answer is the row at t=0 and every
# other path answers nothing; the mirror case is the other way round.
# Strict, so the fix must delete the marker. Cluster-key lookups are
# planned naive alone; ``rtime <= 0`` is not one, so the race runs here.
BUG_A_SQL = "select epc, rtime, reader, biz_loc from r where rtime <= 0"


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="Bug A: the expanded condition "
                   "ignores the rows an earlier rule needs")
@pytest.mark.parametrize("rows", [
    [("e3", 0, "r0", "l2"), ("e3", 1, "r0", "l1"), ("e3", 2, "rx", "l1")],
    [("e3", 0, "r0", "l1"), ("e3", 1, "r0", "l2"), ("e3", 2, "rx", "l1")],
], ids=["reproducer", "mirror"])
def test_bug_a_every_strategy_agrees_with_naive(rows):
    db = Database()
    db.create_table("r", SCHEMA)
    db.load("r", rows)
    db.create_index("r", "rtime")
    registry = RuleRegistry()
    registry.define(RULES["duplicate"])
    registry.define(RULES["reader"])
    engine = DeferredCleansingEngine(db, registry)
    naive = sorted(engine.execute(BUG_A_SQL, strategies={"naive"}).rows)
    for strategies in ({"expanded"}, {"joinback"}, None):
        assert sorted(engine.execute(BUG_A_SQL, strategies).rows) == naive
