"""Vectorized execution tests: RowBatch mechanics, batch-compiled
expression parity with the scalar evaluator, NULL-ordering pins for the
decorated-key sort, executor/reference equivalence at every batch size
(plus an operator-by-operator EXPLAIN ANALYZE diff across sizes), and
the batch metrics.
"""

import pytest

from repro.fuzz import reference
from repro.knobs import UnknownKnobWarning
from repro.minidb import Database, SqlType, TableSchema
from repro.minidb.result import ResultSet
from repro.minidb.sqlparse import parse_expression
from repro.minidb.vector import (
    DEFAULT_BATCH_SIZE,
    RowBatch,
    configured_batch_size,
    forced_batch_size,
)


class TestRowBatch:
    def test_from_rows_round_trip(self):
        rows = [(1, "a"), (2, "b"), (3, None)]
        batch = RowBatch.from_rows(rows, 2)
        assert batch.length == 3
        assert len(batch) == 3
        assert batch.columns == [[1, 2, 3], ["a", "b", None]]
        assert batch.rows() == rows

    def test_rows_lazy_transpose_is_cached(self):
        batch = RowBatch([[1, 2], ["x", "y"]], 2)
        first = batch.rows()
        assert first == [(1, "x"), (2, "y")]
        assert batch.rows() is first

    def test_empty_and_zero_width(self):
        empty = RowBatch.from_rows([], 3)
        assert empty.columns == [[], [], []]
        assert empty.rows() == []
        widthless = RowBatch([], 4)
        assert widthless.rows() == [(), (), (), ()]

    def test_take_and_head(self):
        batch = RowBatch.from_rows([(1, "a"), (2, "b"), (3, "c")], 2)
        taken = batch.take([2, 0])
        assert taken.rows() == [(3, "c"), (1, "a")]
        assert batch.head(2).rows() == [(1, "a"), (2, "b")]
        # source columns untouched
        assert batch.columns == [[1, 2, 3], ["a", "b", "c"]]

    def test_configured_size_knob(self, monkeypatch):
        with forced_batch_size(17):
            assert configured_batch_size() == 17
        monkeypatch.setenv("REPRO_BATCH_SIZE", "junk")
        with pytest.warns(UnknownKnobWarning, match="REPRO_BATCH_SIZE"):
            assert configured_batch_size() == DEFAULT_BATCH_SIZE
        # 0 is not a tuple-at-a-time mode: it warns and runs the default.
        monkeypatch.setenv("REPRO_BATCH_SIZE", "0")
        with pytest.warns(UnknownKnobWarning, match="at least 1"):
            assert configured_batch_size() == DEFAULT_BATCH_SIZE


SCHEMA = TableSchema.of(("a", SqlType.INTEGER), ("b", SqlType.INTEGER),
                        ("s", SqlType.VARCHAR))

ROWS = [(1, 10, "x"), (2, None, "y"), (None, 30, "x"), (4, 40, None),
        (5, 5, "z"), (0, 0, "x")]


def _resolver():
    positions = {"a": 0, "b": 1, "s": 2}

    def resolve(qualifier, name):
        return positions[name]

    return resolve


class TestBatchExpressionParity:
    """bind_batch must agree with bind, value for value, NULLs included."""

    EXPRESSIONS = [
        "a", "42", "a + b", "a - 1", "b * 2", "a / 2",
        "a = b", "a != b", "a < b", "a <= 4", "a > b", "b >= 30",
        "a is null", "b is not null", "-a", "not (a < b)",
        "a < b and b < 40", "a is null or b is null",
        "a in (1, 4, 9)", "s in ('x', 'z')", "a not in (2, 5)",
        "a in (1, null)",
        "case when a is null then -1 else a end",
        # The rule templates' flag filter: literal arms only.
        "case when a = 1 and true then false else true end",
        # Several arms; a NULL condition falls through to the next.
        "case when a < 2 then 'lo' when a < 5 then s else 'hi' end",
        "case when a < b then a when b is null then -b else b end",
        "case when null then 1 else 2 end",
        # No ELSE: undecided rows are NULL.
        "case when a > 3 then b end",
        "case when a > 3 then 'big' when s = 'x' then s end",
        # An arm may raise only on the rows that reach it.
        "case when b = 0 then 0 else a / b end",
        "case when a = 0 then -1 when 10 / a > 3 then 1 else 0 end",
        "case when a is null then 0 when a = 0 then 0 else b / a end",
        # Every row taken by the first arm / by none.
        "case when true then a else 1 / 0 end",
        "case when a > 100 then 1 / 0 else s end",
    ]

    @pytest.mark.parametrize("text", EXPRESSIONS)
    def test_matches_scalar_bind(self, text):
        expr = parse_expression(text)
        resolver = _resolver()
        bound = expr.bind(resolver)
        batch_bound = expr.bind_batch(resolver)
        expected = [bound(row) for row in ROWS]
        assert batch_bound(RowBatch.from_rows(ROWS, 3)) == expected

    @pytest.mark.parametrize("text", EXPRESSIONS)
    def test_fallback_kernel_matches(self, text):
        """The node's own vectorized kernel against its elementwise
        ``bind`` closure — the closure ``bind_batch`` falls back to for
        nodes without a kernel."""
        expr = parse_expression(text)
        resolver = _resolver()
        kernel = expr._bind_batch_fast(resolver)
        assert kernel is not None, f"{text} has no vectorized kernel"
        bound = expr.bind(resolver)
        batch = RowBatch.from_rows(ROWS, 3)
        assert kernel(batch) == [bound(row) for row in batch.rows()]

    def test_kleene_three_valued_corners(self):
        resolver = _resolver()
        batch = RowBatch.from_rows(
            [(None, 1, "q"), (None, None, "q"), (0, None, "q")], 3)
        # NULL AND TRUE = NULL; FALSE AND NULL = FALSE.
        expr = parse_expression("a < 0 and b > 0")
        values = expr.bind_batch(resolver)(batch)
        assert values == [None, None, False]
        expr = parse_expression("a is null or b > 0")
        values = expr.bind_batch(resolver)(batch)
        assert values == [True, True, None]


@pytest.fixture
def db():
    database = Database()
    database.create_table("t", TableSchema.of(
        ("k", SqlType.INTEGER), ("v", SqlType.INTEGER),
        ("tag", SqlType.VARCHAR)))
    database.load("t", [
        (1, 10, "a"), (2, None, "b"), (3, 30, "a"), (None, 40, "c"),
        (5, 50, None), (6, 10, "b"), (7, None, "a"), (8, 80, "c"),
        (2, 15, "a"), (3, 30, "b"), (None, None, "a"), (9, 5, "b"),
    ])
    database.create_table("d", TableSchema.of(
        ("tag", SqlType.VARCHAR), ("label", SqlType.VARCHAR)))
    database.load("d", [("a", "alpha"), ("b", "beta"), ("b", "beta2")])
    return database


EQUIVALENCE_QUERIES = [
    "select k, v from t where v > 10 and k < 8",
    "select k + v from t",
    "select t.k, d.label from t, d where t.tag = d.tag",
    "select t.k, d.label from t left join d on t.tag = d.tag",
    "select tag, count(*), sum(v), min(v), max(v), avg(v) "
    "from t group by tag",
    "select count(distinct tag) from t",
    "select distinct tag from t",
    "select k from t where tag in (select tag from d)",
    "select k from t where tag not in (select tag from d)",
    "select k, v from t order by v desc, k",
    "select k from t order by k limit 4",
    "select k from t where v > 0 union all select k from t where k > 5",
    "select k, v, sum(v) over (partition by tag order by k "
    "rows between 1 preceding and current row) from t",
    "select k, row_number() over (partition by tag order by k) from t",
    "select k, avg(v) over (order by k range between 2 preceding "
    "and current row) from t where k is not null",
]


class TestScalarBatchEquivalence:
    """The tuple-at-a-time reference evaluator's row bag at every batch
    size, and identical output rows, in identical order, across sizes."""

    @pytest.mark.parametrize("sql", EQUIVALENCE_QUERIES)
    def test_all_batch_sizes_agree(self, db, sql):
        expected = ResultSet([], reference.execute(db, sql)).canonical()
        results = {}
        for size in (1, 3, 4096):
            with forced_batch_size(size):
                db.plan_cache.clear()
                results[size] = db.execute(sql)
            assert results[size].canonical() == expected, \
                f"batch size {size} diverged from the reference"
        first = results.pop(1).rows
        for size, result in results.items():
            assert result.rows == first, f"batch size {size} reordered"

    def test_explained_plan_diff_rows_match(self, db):
        """The same plan drained at batch size 7 and at the default size
        reports identical per-operator actual row counts."""
        sql = ("select t.k, d.label, sum(t.v) over (partition by t.tag "
               "order by t.k) from t, d where t.tag = d.tag and t.v > 5 "
               "order by t.k")
        with forced_batch_size(7):
            db.plan_cache.clear()
            small = db.explain_analyze(sql)
        db.plan_cache.clear()
        default = db.explain_analyze(sql)
        small_counts = [(node.label(), node.actual_rows)
                        for node in small.plan.walk()]
        default_counts = [(node.label(), node.actual_rows)
                          for node in default.plan.walk()]
        assert small_counts == default_counts
        assert small.text == default.text  # full EXPLAIN ANALYZE renders


def _rows(db, sql, size):
    """*sql*'s rows from the executor at batch size *size*, or from the
    reference evaluator when *size* is 0."""
    if size == 0:
        return reference.execute(db, sql)
    with forced_batch_size(size):
        db.plan_cache.clear()
        return db.execute(sql).rows


class TestSortNullOrdering:
    """Pin the sort contract the decorated-key sort and the reference
    evaluator's ``sorted()`` (size 0) must both keep: NULLs first
    ascending, NULLs last descending, stable ties."""

    @pytest.mark.parametrize("size", [0, 3])
    def test_nulls_first_ascending(self, db, size):
        values = [row[0] for row in
                  _rows(db, "select v from t order by v", size)]
        assert values == [None, None, None, 5, 10, 10, 15, 30, 30, 40,
                          50, 80]

    @pytest.mark.parametrize("size", [0, 3])
    def test_nulls_last_descending(self, db, size):
        values = [row[0] for row in
                  _rows(db, "select v from t order by v desc", size)]
        assert values == [80, 50, 40, 30, 30, 15, 10, 10, 5, None, None,
                          None]

    @pytest.mark.parametrize("size", [0, 3])
    def test_multi_key_null_placement(self, db, size):
        rows = _rows(db, "select tag, v from t order by tag, v desc", size)
        # tag ascending: NULL tag first; within each tag v descending
        # with NULL v last.
        assert rows[0][0] is None
        a_rows = [v for tag, v in rows if tag == "a"]
        assert a_rows == [30, 15, 10, None, None]

    @pytest.mark.parametrize("size", [0, 3])
    def test_stable_on_ties(self, db, size):
        rows = _rows(db, "select k, v from t where v = 30", size)
        ordered = _rows(db, "select k, v from t where v = 30 order by v",
                        size)
        assert ordered == rows  # ties keep input order


class TestBatchMetrics:
    def test_batches_and_selection_density(self, db):
        with forced_batch_size(4):
            db.plan_cache.clear()
            _, metrics = db.execute_with_metrics(
                "select k from t where v > 10")
        assert metrics.batches > 0
        assert metrics.filter_input_rows == 12
        assert metrics.filter_output_rows == 6
        assert metrics.selection_density == pytest.approx(6 / 12)
        assert any(label.startswith("SeqScan")
                   for label, _ in metrics.operator_rows)

    def test_batch_size_one_emits_a_batch_per_row(self, db):
        """The degenerate size pays one chunk per stored row and stays
        correct (``test_all_batch_sizes_agree`` holds the rows)."""
        with forced_batch_size(1):
            db.plan_cache.clear()
            _, metrics = db.execute_with_metrics(
                "select k from t where v > 10")
        assert metrics.batches >= metrics.filter_input_rows == 12

    def test_prepared_plan_reuse_resets_batch_counters(self, db):
        with forced_batch_size(4):
            db.plan_cache.clear()
            sql = "select k from t where v > 10"
            _, first = db.execute_with_metrics(sql)
            _, second = db.execute_with_metrics(sql)
        assert second.plan_cache_hits == 1
        assert second.batches == first.batches
        assert second.filter_input_rows == first.filter_input_rows
