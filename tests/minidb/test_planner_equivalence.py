"""Optimizer-equivalence property tests.

Every planner feature (predicate pushdown, index access paths, order
sharing) is an *optimization*: turning it off must never change query
results. Random queries over random data are run with each toggle
flipped, and with all of them off, and compared against the reference
evaluator's answer to the unoptimized logical plan.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fuzz import reference
from repro.minidb import Database, PlannerOptions, SqlType, TableSchema

SCHEMA = TableSchema.of(
    ("epc", SqlType.VARCHAR),
    ("rtime", SqlType.TIMESTAMP),
    ("biz_loc", SqlType.VARCHAR),
    ("v", SqlType.INTEGER),
)

ROWS = st.lists(
    st.tuples(st.sampled_from(["e1", "e2", "e3"]),
              st.integers(0, 200),
              st.sampled_from(["x", "y", "z"]),
              st.one_of(st.none(), st.integers(-5, 5))),
    min_size=0, max_size=30)

# Query templates exercising filters across windows, joins, grouping,
# subqueries, and set operations.
QUERIES = st.sampled_from([
    "select epc, rtime from t where rtime <= {t} and biz_loc != 'x'",
    "select biz_loc, count(*) as n, sum(v) as s from t "
    "where rtime >= {t} group by biz_loc",
    "with w as (select epc, rtime, max(v) over (partition by epc "
    "order by rtime asc rows between 1 preceding and 1 preceding) as pv "
    "from t) select * from w where rtime <= {t}",
    "with w as (select epc, biz_loc, max(rtime) over (partition by epc "
    "order by rtime asc) as mt from t) "
    "select * from w where epc = 'e1'",
    "select a.epc, b.v from t a, t b "
    "where a.epc = b.epc and a.rtime < b.rtime and a.rtime <= {t}",
    "select epc from t where epc in "
    "(select epc from t where v > 0) and rtime <= {t}",
    "select epc, rtime from t where rtime <= {t} "
    "union all select epc, rtime from t where v is null",
    "select distinct biz_loc from t where rtime >= {t}",
    "select epc, count(distinct biz_loc) as locs from t group by epc "
    "having count(*) > 1",
])

VARIATIONS = [
    PlannerOptions(),  # everything on
    PlannerOptions(use_indexes=False),
    PlannerOptions(order_sharing=False),
    PlannerOptions(push_filters=False),
    PlannerOptions(use_indexes=False, order_sharing=False,
                   push_filters=False),  # everything off
]


def _database(rows):
    db = Database()
    db.create_table("t", SCHEMA)
    db.load("t", rows)
    db.create_index("t", "rtime")
    db.create_index("t", "epc")
    return db


@settings(max_examples=60, deadline=None)
@given(rows=ROWS, template=QUERIES, t=st.integers(0, 200))
def test_optimizations_never_change_results(rows, template, t):
    db = _database(rows)
    sql = template.format(t=t)
    baseline = sorted(reference.execute(db, sql), key=repr)
    for options in VARIATIONS:
        got = sorted(db.execute(sql, options=options).rows, key=repr)
        assert got == baseline, options


@settings(max_examples=40, deadline=None)
@given(rows=ROWS, t=st.integers(0, 200))
def test_window_barrier_is_semantic_not_cosmetic(rows, t):
    """Filtering a CTE containing a window must equal filtering the
    window's materialized output in Python."""
    db = _database(rows)
    sql = ("with w as (select epc, rtime, "
           "count(*) over (partition by epc order by rtime asc "
           "rows between unbounded preceding and current row) as rn "
           f"from t) select epc, rtime, rn from w where rtime <= {t}")
    via_engine = sorted(db.execute(sql).rows)
    unfiltered = db.execute(
        "with w as (select epc, rtime, count(*) over (partition by epc "
        "order by rtime asc rows between unbounded preceding and "
        "current row) as rn from t) select epc, rtime, rn from w")
    expected = sorted(row for row in unfiltered.rows if row[1] <= t)
    assert via_engine == expected
