"""Loader tests: the paper's physical design lands in the database."""

import pytest

from repro.datagen import GeneratorConfig, RFIDGen, load_into_database

CFG = dict(scale=2, stores=4, warehouses=2, distribution_centers=2,
           locations_per_site=5, products=20, manufacturers=5)


@pytest.fixture(scope="module")
def db():
    data = RFIDGen(GeneratorConfig(anomaly_percent=10.0, **CFG)).generate()
    return load_into_database(data)


class TestTables:
    def test_all_seven_tables_exist(self, db):
        for name in ("caser", "palletr", "parent", "epc_info", "product",
                     "locs", "steps"):
            assert name in db.catalog

    def test_row_counts_match_generated(self, db):
        assert len(db.table("steps")) == 100
        assert len(db.table("locs")) == 8 * 5

    def test_foreign_keys_resolve(self, db):
        orphans = db.execute("""
            select count(*) from caser
            where biz_loc not in (select gln from locs)""").scalar()
        assert orphans == 0
        unparented = db.execute("""
            select count(*) from epc_info
            where epc not in (select child_epc from parent)""").scalar()
        assert unparented == 0


class TestIndexes:
    def test_reads_tables_indexed_except_reader(self, db):
        for table_name in ("caser", "palletr"):
            table = db.table(table_name)
            for column in ("epc", "rtime", "biz_loc", "biz_step"):
                assert table.index_on(column) is not None, column
            assert table.index_on("reader") is None

    def test_parent_indexed_on_child(self, db):
        assert db.table("parent").index_on("child_epc") is not None

    def test_dimension_indexes(self, db):
        assert db.table("locs").index_on("site") is not None
        assert db.table("steps").index_on("type") is not None

    def test_stats_computed(self, db):
        stats = db.stats.get("caser")
        assert stats is not None
        assert stats.row_count == len(db.table("caser"))
        assert stats.column("rtime").ndv > 0

    def test_rtime_queries_use_index(self, db):
        caser = db.table("caser")
        position = caser.schema.position_of("rtime")
        low = min(row[position] for row in caser.rows)
        explained = db.explain(
            f"select count(*) from caser where rtime <= {low}")
        assert "IndexRangeScan" in explained.text
