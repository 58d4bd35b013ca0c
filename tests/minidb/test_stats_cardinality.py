"""Statistics and selectivity-estimation tests."""

import pytest

from repro.minidb import Database, SqlType, TableSchema
from repro.minidb.optimizer.cardinality import (
    DEFAULT_SELECTIVITY,
    SelectivityEstimator,
)
from repro.minidb.optimizer.stats import analyze_table
from repro.minidb.plan.planschema import PlanSchema
from repro.minidb.sqlparse import parse_expression


@pytest.fixture
def db():
    database = Database()
    database.create_table("t", TableSchema.of(
        ("k", SqlType.INTEGER), ("g", SqlType.VARCHAR),
        ("ts", SqlType.TIMESTAMP)))
    rows = []
    for i in range(200):
        rows.append((i, f"g{i % 10}", None if i % 20 == 0 else i * 5))
    database.load("t", rows)
    return database


def schema_for(db):
    return PlanSchema.from_table(db.table("t").schema, "t",
                                 table_name="t")


class TestTableStats:
    def test_row_count_and_ndv(self, db):
        stats = db.stats.get("t")
        assert stats.row_count == 200
        assert stats.column("g").ndv == 10
        assert stats.column("k").ndv == 200

    def test_null_count(self, db):
        assert db.stats.get("t").column("ts").null_count == 10

    def test_min_max(self, db):
        column = db.stats.get("t").column("k")
        assert column.min_value == 0
        assert column.max_value == 199

    def test_histogram_range_fraction(self, db):
        column = db.stats.get("t").column("k")
        assert column.range_fraction(0, 99) == pytest.approx(0.5, abs=0.1)
        assert column.range_fraction(None, 19) \
            == pytest.approx(0.1, abs=0.05)
        assert column.range_fraction(500, 600) <= 0.05

    def test_empty_table(self):
        database = Database()
        database.create_table("e", TableSchema.of(("x", SqlType.INTEGER)))
        stats = analyze_table(database.table("e"))
        assert stats.row_count == 0
        assert stats.column("x").ndv == 0

    def test_span_fractions_for_clustered_key(self, db):
        # g groups are spread over the whole k range: span ~ 1.
        stats = db.stats.get("t")
        span = stats.span_fraction("g", "k")
        assert span is not None and span > 0.9

    def test_span_fraction_for_clustered_sequences(self):
        database = Database()
        database.create_table("s", TableSchema.of(
            ("epc", SqlType.VARCHAR), ("rtime", SqlType.TIMESTAMP)))
        rows = []
        # 20 sequences, each spanning 10 ticks of a 2000-tick window.
        for seq in range(20):
            base = seq * 100
            rows.extend((f"e{seq}", base + offset) for offset in range(10))
        database.load("s", rows)
        span = database.stats.get("s").span_fraction("epc", "rtime")
        assert span == pytest.approx(9 / 1909, rel=0.2)

    def test_analyze_reads_the_rows_once(self, db):
        """Every column and every (key, order) span pair comes from one
        pass over the rows: the cold column cache's build."""
        table = db.table("t")

        class CountingRows(list):
            passes = 0

            def __iter__(self):
                CountingRows.passes += 1
                return super().__iter__()

            def __getitem__(self, item):
                CountingRows.passes += 1
                return super().__getitem__(item)

        expected = analyze_table(table)
        table.rows = CountingRows(table.rows)
        table._invalidate_columnar()
        stats = analyze_table(table)
        assert CountingRows.passes == 1
        assert stats.span_fractions == expected.span_fractions
        assert stats.span_fraction("g", "k") is not None
        assert stats == expected
        analyze_table(table)  # warm: the cache answers, no row is read
        assert CountingRows.passes == 1



class TestSelectivity:
    def estimator(self, db):
        return SelectivityEstimator(db.stats)

    def sel(self, db, text):
        return self.estimator(db).selectivity(parse_expression(text),
                                              schema_for(db))

    def test_equality_uses_ndv(self, db):
        assert self.sel(db, "g = 'g3'") == pytest.approx(0.1, abs=0.02)

    def test_range_uses_histogram(self, db):
        assert self.sel(db, "k < 50") == pytest.approx(0.25, abs=0.08)

    def test_conjunction_multiplies(self, db):
        single = self.sel(db, "g = 'g3'")
        double = self.sel(db, "g = 'g3' and k < 50")
        assert double < single

    def test_disjunction_adds(self, db):
        either = self.sel(db, "g = 'g3' or g = 'g4'")
        assert either == pytest.approx(0.19, abs=0.03)

    def test_negation(self, db):
        assert self.sel(db, "not g = 'g3'") \
            == pytest.approx(0.9, abs=0.02)

    def test_in_list(self, db):
        assert self.sel(db, "g in ('g1', 'g2', 'g3')") \
            == pytest.approx(0.3, abs=0.05)

    def test_is_null_uses_null_fraction(self, db):
        assert self.sel(db, "ts is null") == pytest.approx(0.05, abs=0.01)
        assert self.sel(db, "ts is not null") \
            == pytest.approx(0.95, abs=0.01)

    def test_unknown_shape_defaults(self, db):
        assert self.sel(db, "k * k > 10") == DEFAULT_SELECTIVITY

    def test_literal_arithmetic_folded(self, db):
        narrow = self.sel(db, "k < 10 + 10")
        assert narrow == pytest.approx(0.1, abs=0.05)

    def test_result_clamped_to_unit_interval(self, db):
        assert 0.0 < self.sel(db, "k < -1000") <= 1.0
        assert self.sel(db, "k < 100000") == 1.0
