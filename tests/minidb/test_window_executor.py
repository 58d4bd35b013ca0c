"""Window-function executor tests.

The SQL/OLAP executor is the engine's most intricate component and the
one all cleansing rules ride on, so it gets both example-based tests and
property tests: the optimized sliding-frame evaluation must agree with
the naive per-row rescan, and both must agree with an independent
Python reference model.
"""

import contextlib

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.errors import ExecutionError
from repro.minidb import Database, PlannerOptions, SqlType, TableSchema
from repro.minidb.plan.window import WindowOp
from repro.minidb.vector import forced_batch_size, materialize

SCHEMA = TableSchema.of(("g", SqlType.VARCHAR),
                        ("t", SqlType.TIMESTAMP),
                        ("v", SqlType.INTEGER))


def make_db(rows):
    db = Database()
    db.create_table("w", SCHEMA)
    db.load("w", rows)
    return db


def run(db, sql, naive=False):
    options = PlannerOptions(naive_windows=naive)
    return db.execute(sql, options=options)


class TestRowsFrames:
    def test_lag_style_one_preceding(self):
        db = make_db([("a", 1, 10), ("a", 2, 20), ("a", 3, 30),
                      ("b", 1, 99)])
        rs = run(db, """
            select g, t, max(v) over (partition by g order by t asc
                rows between 1 preceding and 1 preceding) as prev
            from w""")
        assert rs.rows == [("a", 1, None), ("a", 2, 10), ("a", 3, 20),
                           ("b", 1, None)]

    def test_following_window(self):
        db = make_db([("a", 1, 10), ("a", 2, 20), ("a", 3, 30)])
        rs = run(db, """
            select t, sum(v) over (partition by g order by t asc
                rows between 1 following and 2 following) as nxt
            from w""")
        assert rs.column("nxt") == [50, 30, None]

    def test_unbounded_both_sides(self):
        db = make_db([("a", 1, 1), ("a", 2, 2), ("b", 1, 5)])
        rs = run(db, """
            select g, count(*) over (partition by g order by t asc
                rows between unbounded preceding and unbounded following)
                as n
            from w""")
        assert rs.rows == [("a", 2), ("a", 2), ("b", 1)]

    def test_default_frame_is_cumulative_with_peers(self):
        db = make_db([("a", 1, 1), ("a", 2, 2), ("a", 2, 3), ("a", 3, 4)])
        rs = run(db, """
            select t, sum(v) over (partition by g order by t asc) as s
            from w""")
        # Rows with t=2 are peers: both see the full peer group.
        assert rs.column("s") == [1, 6, 6, 10]

    def test_no_order_means_whole_partition(self):
        db = make_db([("a", 1, 1), ("a", 9, 2)])
        rs = run(db, "select sum(v) over (partition by g) as s from w")
        assert rs.column("s") == [3, 3]


class TestRangeFrames:
    def test_range_following_window(self):
        db = make_db([("a", 0, 1), ("a", 50, 2), ("a", 100, 3),
                      ("a", 400, 4)])
        rs = run(db, """
            select t, count(*) over (partition by g order by t asc
                range between 1 following and 100 following) as n
            from w""")
        assert rs.column("n") == [2, 1, 0, 0]

    def test_range_preceding_window(self):
        db = make_db([("a", 0, 1), ("a", 50, 2), ("a", 100, 3)])
        rs = run(db, """
            select t, sum(v) over (partition by g order by t asc
                range between 60 preceding and 1 preceding) as s
            from w""")
        assert rs.column("s") == [None, 1, 2]

    def test_range_excluding_current_row(self):
        db = make_db([("a", 10, 7)])
        rs = run(db, """
            select max(v) over (partition by g order by t asc
                range between 1 following and 5 following) as m
            from w""")
        assert rs.column("m") == [None]

    def test_range_ties_share_frame(self):
        db = make_db([("a", 10, 1), ("a", 10, 2), ("a", 11, 3)])
        rs = run(db, """
            select count(*) over (partition by g order by t asc
                range between 0 preceding and 0 following) as n
            from w""")
        assert rs.column("n") == [2, 2, 1]


class TestFunctions:
    def test_row_number(self):
        db = make_db([("a", 3, 0), ("a", 1, 0), ("b", 2, 0)])
        rs = run(db, """
            select g, t, row_number() over (partition by g order by t asc)
                as rn
            from w""")
        assert rs.rows == [("a", 1, 1), ("a", 3, 2), ("b", 2, 1)]

    @pytest.mark.parametrize("size", [0, 1024])
    def test_two_partition_keys(self, size):
        db = make_db([("b", 1, 20), ("a", 1, 10), ("a", 2, 30), ("a", 1, 5)])
        with forced_batch_size(size):
            rs = run(db, """
                select g, t, sum(v) over (partition by g, t) as s,
                       row_number() over (partition by g, t) as rn
                from w""")
        assert rs.rows == [("a", 1, 15, 1), ("a", 1, 15, 2),
                           ("a", 2, 30, 1), ("b", 1, 20, 1)]

    def test_lag_and_lead(self):
        db = make_db([("a", 1, 10), ("a", 2, 20), ("a", 3, 30)])
        rs = run(db, """
            select lag(v) over (partition by g order by t asc) as lg,
                   lead(v) over (partition by g order by t asc) as ld
            from w""")
        assert rs.column("lg") == [None, 10, 20]
        assert rs.column("ld") == [20, 30, None]

    def test_null_arguments_skipped_by_aggregates(self):
        db = make_db([("a", 1, None), ("a", 2, 5)])
        rs = run(db, """
            select count(v) over (partition by g) as c,
                   count(*) over (partition by g) as n,
                   avg(v) over (partition by g) as m
            from w""")
        assert rs.rows[0] == (1, 2, 5.0)

    def test_min_max_over_sliding_window(self):
        db = make_db([("a", i, v) for i, v in
                      enumerate([5, 1, 4, 2, 8, 3])])
        rs = run(db, """
            select min(v) over (partition by g order by t asc
                rows between 2 preceding and current row) as lo,
                   max(v) over (partition by g order by t asc
                rows between 2 preceding and current row) as hi
            from w""")
        assert rs.column("lo") == [5, 1, 1, 1, 2, 2]
        assert rs.column("hi") == [5, 5, 5, 4, 8, 8]

    def test_descending_order(self):
        db = make_db([("a", 1, 10), ("a", 2, 20), ("a", 3, 30)])
        rs = run(db, """
            select t, max(v) over (partition by g order by t desc
                rows between 1 preceding and 1 preceding) as nxt
            from w""")
        by_t = dict(zip(rs.column("t"), rs.column("nxt")))
        assert by_t == {3: None, 2: 30, 1: 20}


class TestFloatSums:
    def test_sliding_float_sum_does_not_cancel(self):
        # A running total would compute (1e16 + 1.0) - 1e16 == 0.0.
        db = Database()
        db.create_table("f", TableSchema.of(("g", SqlType.VARCHAR),
                                            ("t", SqlType.INTEGER),
                                            ("v", SqlType.DOUBLE)))
        db.load("f", [("a", 1, 1e16), ("a", 2, 1.0), ("a", 3, 3.0)])
        for frame, expected in [
                ("rows between 1 following and 1 following",
                 [1.0, 3.0, None]),
                ("rows between current row and 1 following",
                 [1e16, 4.0, 3.0])]:
            sql = (f"select sum(v) over (partition by g order by t "
                   f"{frame}) as s from f")
            for size in (0, 1024):
                with forced_batch_size(size):
                    assert run(db, sql).column("s") == expected
                    assert run(db, sql, naive=True).column("s") == expected


class TestDescendingVarcharOrder:
    ROWS = [("a", 1, 10), ("a", 2, 20), ("b", 3, 30), ("c", 4, None)]

    @pytest.mark.parametrize("size", [0, 1024])
    def test_row_number_rows_frame_and_default_frame(self, size):
        db = make_db(self.ROWS)
        with forced_batch_size(size):
            rs = run(db, """
                select g, row_number() over (order by g desc) as rn,
                       max(v) over (order by g desc
                           rows between 1 preceding and 1 preceding) as p,
                       count(*) over (order by g desc) as n
                from w""")
        assert rs.rows == [("c", 1, None, 1), ("b", 2, None, 2),
                           ("a", 3, 30, 4), ("a", 4, 10, 4)]

    def test_range_offset_needs_a_numeric_key(self):
        db = make_db(self.ROWS)
        with pytest.raises(ExecutionError, match="numeric ORDER BY key"):
            run(db, """select count(*) over (order by g desc
                       range between 1 preceding and current row) from w""")
        # Without an offset no arithmetic is done on the key.
        rs = run(db, """select count(*) over (order by g desc
                        range between unbounded preceding
                        and unbounded following) as n from w""")
        assert rs.column("n") == [4, 4, 4, 4]


# ----------------------------------------------------------------------
# Property test: kernels == naive rescan == independent reference model.
# ----------------------------------------------------------------------

PROPERTY_SCHEMA = TableSchema.of(("g", SqlType.VARCHAR),
                                 ("t", SqlType.INTEGER),
                                 ("v", SqlType.INTEGER),
                                 ("f", SqlType.DOUBLE))

#: Dyadic floats, whose sums are exact in any order, plus two values big
#: enough that a running total loses the small ones.
FLOATS = [0.25, -1.5, 3.0, 1.0, 8.75, 1e16, -1e16]

property_rows = st.lists(
    st.tuples(st.sampled_from(["a", "b", "c"]),
              st.one_of(st.none(), st.integers(0, 8)),
              st.one_of(st.none(), st.integers(-10, 10)),
              st.one_of(st.none(), st.sampled_from(FLOATS))),
    min_size=0, max_size=24)

_offset = st.one_of(st.none(), st.integers(-3, 3))  # None = UNBOUNDED
#: A frame is None (the default frame) or (mode, start, end).
property_frame = st.one_of(
    st.none(),
    st.tuples(st.sampled_from(["rows", "range"]), _offset, _offset)
    .filter(lambda f: f[1] is None or f[2] is None or f[1] <= f[2]))

property_function = st.tuples(
    st.sampled_from(["sum", "avg", "min", "max", "count", "count*"]),
    st.sampled_from(["v", "f"]),
    st.integers(0, 1))  # which of the two drawn frames it uses


def _frame_sql(frame):
    if frame is None:
        return ""
    mode, start, end = frame

    def bound(offset, unbounded):
        if offset is None:
            return unbounded
        if offset == 0:
            return "current row"
        return f"{-offset} preceding" if offset < 0 \
            else f"{offset} following"

    return (f"{mode} between {bound(start, 'unbounded preceding')} "
            f"and {bound(end, 'unbounded following')}")


def _in_frame(frame, keys, i, j):
    """Is sorted row *j* in the frame of sorted row *i*?  ``keys`` are
    the order keys normalized to ascend (negated under DESC)."""
    if frame is None:  # up to and including the current row's peers
        return j <= i or keys[j] == keys[i]
    mode, start, end = frame
    if mode == "rows":
        return (start is None or start <= j - i) \
            and (end is None or j - i <= end)
    if keys[i] is None or keys[j] is None:
        # NULL keys are peers of each other; anything else reaches them,
        # or is reached from them, only through an UNBOUNDED side.
        return (keys[i] is None and keys[j] is None) \
            or (j < i and start is None) or (j > i and end is None)
    return (start is None or keys[i] + start <= keys[j]) \
        and (end is None or keys[j] <= keys[i] + end)


def reference(rows, descending, functions):
    """Independent O(n^2) model: the query's rows, in output order."""
    # The engine's order: stable by t (NULLs first; reversed wholesale
    # under DESC, which keeps ties in arrival order), then stable by g.
    ordered = sorted(rows, key=lambda r: (r[1] is not None, r[1] or 0),
                     reverse=descending)
    ordered.sort(key=lambda r: r[0])
    out = []
    for group in sorted({row[0] for row in ordered}):
        members = [row for row in ordered if row[0] == group]
        keys = [None if row[1] is None
                else -row[1] if descending else row[1] for row in members]
        for i, row in enumerate(members):
            computed = []
            for func, column, frame in functions:
                window = [other[2 if column == "v" else 3]
                          for j, other in enumerate(members)
                          if _in_frame(frame, keys, i, j)]
                values = [value for value in window if value is not None]
                if func == "count*":
                    computed.append(len(window))
                elif func == "count":
                    computed.append(len(values))
                elif not values:
                    computed.append(None)
                elif func == "sum":
                    computed.append(sum(values))
                elif func == "avg":
                    computed.append(sum(values) / len(values))
                else:
                    computed.append((min if func == "min" else max)(values))
            out.append(row + tuple(computed))
    return out


#: NULL keys sort to one end of the sequence; a frame reaches across
#: that boundary only through an UNBOUNDED side.
NULL_KEY_ROWS = [("a", None, 1, 1.0), ("a", 3, 4, 0.25), ("a", None, 2, 3.0),
                 ("a", 5, 8, 1e16), ("a", 5, None, 1.0), ("b", None, 7, None)]
NULL_KEY_PICKS = [("sum", "v", 0), ("count*", "v", 0), ("max", "f", 1),
                  ("sum", "f", 1)]


@given(rows=property_rows, descending=st.booleans(),
       frames=st.tuples(property_frame, property_frame),
       picks=st.lists(property_function, min_size=1, max_size=4))
@example(rows=NULL_KEY_ROWS, descending=False, picks=NULL_KEY_PICKS,
         frames=(("range", -1, None), ("range", None, 1)))
@example(rows=NULL_KEY_ROWS, descending=True, picks=NULL_KEY_PICKS,
         frames=(("range", -1, None), ("range", None, 1)))
@example(rows=NULL_KEY_ROWS, descending=True, picks=NULL_KEY_PICKS,
         frames=(("range", 0, 2), None))
def test_sliding_matches_naive_and_reference(rows, descending, frames,
                                             picks):
    """Several functions in one Window operator, some sharing a frame,
    over NULL keys and arguments, ties, floats and either direction: the
    kernels, the naive rescan and the model agree at every batch size."""
    functions = [(func, column, frames[which])
                 for func, column, which in picks]
    direction = "desc" if descending else "asc"
    items = ", ".join(
        f"{'count(*)' if func == 'count*' else f'{func}({column})'} over "
        f"(partition by g order by t {direction} {_frame_sql(frame)}) "
        f"as x{index}"
        for index, (func, column, frame) in enumerate(functions))
    sql = f"select g, t, v, f, {items} from w"
    db = Database()
    db.create_table("w", PROPERTY_SCHEMA)
    db.load("w", rows)
    assert len([node for node in db.plan(sql).walk()
                if isinstance(node, WindowOp)]) == 1
    expected = reference(rows, descending, functions)
    # Float sums are exact, hence comparable with the model, only while
    # no value is large enough to absorb another.
    exact = all(row[3] is None or abs(row[3]) < 1e6 for row in rows)
    modelled = [4 + index for index, (func, column, _)
                in enumerate(functions)
                if exact or column == "v" or func not in ("sum", "avg")]
    for size in (0, 1, 7, None):
        with forced_batch_size(size) if size is not None \
                else contextlib.nullcontext():
            fast = run(db, sql).rows
            slow = run(db, sql, naive=True).rows
        assert fast == slow
        assert [row[:4] for row in fast] == [row[:4] for row in expected]
        for position in modelled:
            assert [row[position] for row in fast] \
                == [row[position] for row in expected]


class TestSharedBounds:
    def test_one_sweep_per_distinct_frame_per_operator(self, monkeypatch,
                                                       dirty_bench):
        """On a 3-rule cleansed query the bounds sweep runs once per
        distinct swept frame of each Window operator — not per function,
        not per sequence."""
        from repro.minidb.plan import window

        calls = []
        sweep = window._sweep_bounds

        def counting(frame, spans, *rest):
            calls.append((frame, len(spans)))
            return sweep(frame, spans, *rest)

        monkeypatch.setattr(window, "_sweep_bounds", counting)
        bench = dirty_bench.with_rules(("reader", "duplicate", "replacing"))
        plan = bench.engine.rewrite(bench.q1(0.30)).physical
        operators = [node for node in plan.walk()
                     if isinstance(node, WindowOp)]
        assert len(operators) >= 3
        rows = materialize(plan)
        assert rows
        swept = [{spec.frame for spec in node.functions
                  if window._single_row_shift(spec.frame) is None}
                 for node in operators]
        assert any(swept)  # the RANGE look-ahead of the reader rule
        assert len(calls) == sum(len(frames) for frames in swept)
        assert max(sequences for _, sequences in calls) > 1


class TestLagLeadOffsets:
    def test_offset_two(self):
        db = make_db([("a", i, i * 10) for i in range(4)])
        rs = run(db, """
            select lag(v, 2) over (partition by g order by t asc) as l2,
                   lead(v, 2) over (partition by g order by t asc) as d2
            from w""")
        assert rs.column("l2") == [None, None, 0, 10]
        assert rs.column("d2") == [20, 30, None, None]

    def test_offset_zero_is_identity(self):
        db = make_db([("a", 0, 7), ("a", 1, 8)])
        rs = run(db, "select lag(v, 0) over (partition by g "
                     "order by t asc) as x from w")
        assert rs.column("x") == [7, 8]

    def test_offset_beyond_partition(self):
        db = make_db([("a", 0, 7)])
        rs = run(db, "select lead(v, 5) over (partition by g "
                     "order by t asc) as x from w")
        assert rs.column("x") == [None]

    def test_offset_round_trips_in_sql(self):
        from repro.minidb.sqlparse import parse_expression
        expr = parse_expression(
            "lag(v, 3) over (partition by g order by t asc)")
        assert expr.offset == 3
        assert parse_expression(expr.to_sql()) == expr

    def test_non_literal_offset_rejected(self):
        import pytest
        from repro.errors import SqlSyntaxError
        from repro.minidb.sqlparse import parse_expression
        with pytest.raises(SqlSyntaxError):
            parse_expression("lag(v, t) over (order by t asc)")
