"""Grouped-aggregation kernel tests.

``AggregateOp`` maps each batch's keys to dense group ids and folds every
aggregate in one loop per batch. These tests pin what that must keep:
hand-checked SQL corner cases (empty input, NULL groups and arguments,
DISTINCT across batch boundaries, equal keys of different types, NaN),
one answer for a float SUM whether it is grouped, windowed or computed
by the reference evaluator, and a property test against
``repro.fuzz.reference`` — exact rows in exact order — at several batch
sizes.
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.fuzz import reference
from repro.minidb import Database, SqlType, TableSchema
from repro.minidb.vector import forced_batch_size

SCHEMA = TableSchema.of(("g", SqlType.VARCHAR),
                        ("k", SqlType.INTEGER),
                        ("f", SqlType.DOUBLE))

#: 1 pushes every row through its own batch, 3 cuts groups and DISTINCT
#: duplicates across batch boundaries, 4096 runs one batch.
SIZES = (1, 3, 4096)


def make_db(rows, schema=SCHEMA):
    db = Database()
    db.create_table("t", schema)
    db.load("t", rows)
    return db


def rows_at(db, sql, size):
    with forced_batch_size(size):
        return db.execute(sql).rows


def answers(db, sql):
    """*sql*'s rows, checked equal at every batch size."""
    first = rows_at(db, sql, SIZES[0])
    for size in SIZES[1:]:
        assert rows_at(db, sql, size) == first, size
    return first


class TestEmptyInput:
    def test_keyless_aggregate_over_no_rows_is_one_row(self):
        db = make_db([])
        assert answers(db, "select count(*), count(f), sum(f), avg(f), "
                           "min(k), max(g) from t") \
            == [(0, 0, None, None, None, None)]

    def test_keyless_aggregate_over_filtered_out_rows_is_one_row(self):
        db = make_db([("a", 1, 1.0)])
        assert answers(db, "select count(*), sum(k) from t where k > 5") \
            == [(0, None)]

    def test_grouped_aggregate_over_no_rows_is_no_rows(self):
        db = make_db([])
        assert answers(db, "select g, count(*) from t group by g") == []
        assert answers(db, "select g, k, sum(f) from t group by g, k") == []


class TestNullGroups:
    def test_null_is_its_own_group_in_first_occurrence_order(self):
        db = make_db([("b", 1, 1.0), (None, 2, 2.0), ("a", 3, 3.0),
                      (None, 4, 4.0), ("b", 5, 5.0)])
        assert answers(db, "select g, count(*), sum(k) from t group by g") \
            == [("b", 2, 6), (None, 2, 6), ("a", 1, 3)]

    def test_two_key_groups_containing_null(self):
        db = make_db([("a", None, 1.0), ("a", 1, 2.0), (None, None, 3.0),
                      ("a", None, 4.0), (None, 1, 5.0), (None, None, 6.0)])
        assert answers(db, "select g, k, count(*), max(f) from t "
                           "group by g, k") \
            == [("a", None, 2, 4.0), ("a", 1, 1, 2.0),
                (None, None, 2, 6.0), (None, 1, 1, 5.0)]


class TestNullArguments:
    def test_all_null_arguments(self):
        db = make_db([("a", None, None), ("a", None, None), ("b", 1, None)])
        assert answers(db, "select g, count(*), count(k), sum(k), avg(k), "
                           "min(k), max(k), count(distinct f) from t "
                           "group by g") \
            == [("a", 2, 0, None, None, None, None, 0),
                ("b", 1, 1, 1, 1.0, 1, 1, 0)]

    def test_nulls_are_skipped_not_counted(self):
        db = make_db([("a", None, 2.0), ("a", 4, None), ("a", 2, 1.0)])
        assert answers(db, "select count(*), count(k), sum(k), avg(k), "
                           "avg(f), min(f), max(k) from t") \
            == [(3, 2, 6, 3.0, 1.5, 1.0, 4)]


class TestDistinct:
    def test_count_distinct_ignores_nulls(self):
        db = make_db([("a", None, None), ("a", 1, None), ("a", 1, None),
                      ("b", None, None)])
        assert answers(db, "select g, count(distinct k), count(k) from t "
                           "group by g") == [("a", 1, 2), ("b", 0, 0)]

    def test_duplicates_spanning_batch_boundaries(self):
        # At batch sizes 1 and 3 every repeat of a value arrives in a
        # later batch than its first occurrence.
        rows = [("a", value, None) for value in (1, 2, 3, 1, 2, 4, 3, 1)] \
            + [("b", value, None) for value in (1, 1, 1, 5)]
        db = make_db(rows)
        assert answers(db, "select g, count(distinct k), sum(distinct k), "
                           "avg(distinct k), count(k) from t group by g") \
            == [("a", 4, 10, 2.5, 8), ("b", 2, 6, 3.0, 4)]
        assert answers(db, "select count(distinct k), count(*) from t") \
            == [(5, 12)]

    def test_distinct_is_per_group(self):
        db = make_db([("a", 7, None), ("b", 7, None), ("a", 7, None)])
        assert answers(db, "select g, count(distinct k) from t group by g") \
            == [("a", 1), ("b", 1)]


class TestKeyEquality:
    def test_1_and_1_0_are_one_group_keeping_the_first_key(self):
        db = make_db([("a", 1, 0.5), ("b", 1, 1.0), ("a", 2, 2.0)])
        key = "case when g = 'a' then k else f end"
        rows = answers(db, f"select {key} as x, count(*) from t "
                           f"group by {key}")
        assert rows == [(1, 2), (2, 1)]
        assert type(rows[0][0]) is int
        assert rows == reference.execute(
            db, f"select {key} as x, count(*) from t group by {key}")

    @pytest.mark.parametrize("name", ["min", "max"])
    def test_an_equal_extreme_keeps_the_first(self, name):
        db = make_db([("a", 1, 0.5), ("b", 1, 1.0)])
        value = "case when g = 'a' then k else f end"
        (extreme,), = answers(db, f"select {name}({value}) from t")
        assert extreme == 1 and type(extreme) is int

    def test_nan_keys(self):
        nan = float("nan")
        # One NaN object is one key; separately made NaNs never compare
        # equal, so each is a group of its own, as in the reference.
        db = make_db([("a", 1, nan), ("b", 2, nan), ("c", 3, 1.0),
                      ("d", 4, float("nan")), ("e", 5, float("nan"))])
        sql = "select f, count(*), min(g) from t group by f"
        rows = answers(db, sql)
        assert [row[1:] for row in rows] \
            == [(2, "a"), (1, "c"), (1, "d"), (1, "e")]
        assert rows[0][0] is nan and rows[1][0] == 1.0
        assert rows == reference.execute(db, sql)


class TestNanArguments:
    @pytest.mark.parametrize("name", ["min", "max"])
    def test_a_leading_nan_stays(self, name):
        db = make_db([("a", 1, float("nan")), ("a", 2, 1.0),
                      ("a", 3, -2.0), ("a", 4, 3.0)])
        (value,), = answers(db, f"select {name}(f) from t")
        assert math.isnan(value)

    @pytest.mark.parametrize("name, expected", [("min", -2.0),
                                                ("max", 3.0)])
    def test_a_later_nan_never_displaces(self, name, expected):
        db = make_db([("a", 1, 1.0), ("a", 2, float("nan")),
                      ("a", 3, -2.0), ("a", 4, 3.0)])
        assert answers(db, f"select g, {name}(f) from t group by g") \
            == [("a", expected)]
        assert reference.execute(
            db, f"select g, {name}(f) from t group by g") \
            == [("a", expected)]


# ----------------------------------------------------------------------
# One answer for a float SUM: grouped, windowed and reference.
# ----------------------------------------------------------------------

FLOAT_SUM_SQL = {
    "grouped": "select sum(f) from t group by g",
    "window": "select sum(f) over (partition by g order by k rows between "
              "unbounded preceding and unbounded following) from t",
}


@pytest.mark.parametrize("floats, expected", [
    ([1e16, 0.25, -1e16], 0.0),  # a left fold loses the 0.25
    ([-0.0], -0.0),  # builtin sum() would start at 0 and give 0.0
])
@pytest.mark.parametrize("form", sorted(FLOAT_SUM_SQL))
def test_float_sum_is_a_left_fold_everywhere(form, floats, expected):
    db = make_db([("a", position, value)
                  for position, value in enumerate(floats)])
    sql = FLOAT_SUM_SQL[form]
    for got in (answers(db, sql), reference.execute(db, sql)):
        assert {row[0] for row in got} == {expected}
        assert all(math.copysign(1.0, row[0]) == math.copysign(1.0, expected)
                   for row in got)


# ----------------------------------------------------------------------
# Property test: the kernels == the reference evaluator.
# ----------------------------------------------------------------------

PROPERTY_SCHEMA = TableSchema.of(("k", SqlType.INTEGER),
                                 ("t", SqlType.VARCHAR),
                                 ("f", SqlType.DOUBLE),
                                 ("v", SqlType.INTEGER))

#: Dyadic floats plus two values big enough that a running total loses
#: the small ones: both sides fold left in input order, so even those
#: sums must agree exactly.
FLOATS = [0.25, -1.5, 3.0, 1.0, 8.75, 1e16, -1e16]

property_rows = st.lists(
    st.tuples(st.one_of(st.none(), st.integers(-2, 2)),
              st.one_of(st.none(), st.sampled_from(["x", "y", "z"])),
              st.one_of(st.none(), st.sampled_from(FLOATS)),
              st.one_of(st.none(), st.integers(-10, 10))),
    min_size=0, max_size=30)

property_keys = st.lists(st.sampled_from(["k", "t", "f"]), unique=True,
                         max_size=2)


@st.composite
def property_aggregate(draw):
    name = draw(st.sampled_from(["count*", "count", "sum", "avg", "min",
                                 "max"]))
    if name == "count*":
        return "count(*)"
    numeric = name in ("sum", "avg")
    column = draw(st.sampled_from(["f", "v"] if numeric
                                  else ["k", "t", "f", "v"]))
    distinct = "distinct " if draw(st.booleans()) else ""
    return f"{name}({distinct}{column})"


@given(rows=property_rows, keys=property_keys,
       aggregates=st.lists(property_aggregate(), min_size=1, max_size=4))
def test_kernels_match_reference(rows, keys, aggregates):
    """Any group keys (none, one or two, NULLs included) and any mix of
    aggregates, DISTINCT or not: the executor's rows equal the reference
    evaluator's, in order and exactly, at every batch size."""
    select = ", ".join(keys + aggregates)
    sql = f"select {select} from w"
    if keys:
        sql += " group by " + ", ".join(keys)
    db = Database()
    db.create_table("w", PROPERTY_SCHEMA)
    db.load("w", rows)
    expected = reference.execute(db, sql)
    for size in SIZES:
        assert rows_at(db, sql, size) == expected, size
