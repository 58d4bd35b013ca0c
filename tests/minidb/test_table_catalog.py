"""Table storage and catalog tests."""

import pytest

from repro.errors import CatalogError, SchemaError, TypeMismatchError
from repro.minidb.catalog import Catalog
from repro.minidb.engine import Database
from repro.minidb.schema import TableSchema
from repro.minidb.table import Table, private_table
from repro.minidb.types import SqlType

SCHEMA = TableSchema.of(("epc", SqlType.VARCHAR),
                        ("rtime", SqlType.TIMESTAMP))


class TestTable:
    def test_insert_positional_and_mapping(self):
        table = Table("r", SCHEMA)
        table.insert(("e1", 10))
        table.insert({"rtime": 20, "epc": "e2"})
        assert table.rows == [("e1", 10), ("e2", 20)]

    def test_mapping_missing_column_becomes_null(self):
        table = Table("r", SCHEMA)
        table.insert({"epc": "e1"})
        assert table.rows == [("e1", None)]

    def test_arity_checked(self):
        table = Table("r", SCHEMA)
        with pytest.raises(SchemaError):
            table.insert(("only-one",))

    def test_type_checked(self):
        table = Table("r", SCHEMA)
        with pytest.raises(TypeMismatchError):
            table.insert((123, 10))

    def test_bulk_load_returns_count(self):
        table = Table("r", SCHEMA)
        assert table.bulk_load([("e1", 1), ("e2", 2)]) == 2
        assert len(table) == 2

    def test_bulk_load_rebuilds_indexes(self):
        table = Table("r", SCHEMA)
        index = table.create_index("rtime")
        table.bulk_load([("e1", 5), ("e2", 1)])
        assert len(index) == 2
        assert index.min_key() == 1

    def test_insert_maintains_index(self):
        table = Table("r", SCHEMA)
        table.create_index("rtime")
        table.insert(("e1", 7))
        table.insert(("e2", 3))
        index = table.index_on("rtime")
        from repro.minidb.index import IndexRange
        assert list(index.scan(IndexRange())) == [1, 0]

    def test_duplicate_index_rejected(self):
        table = Table("r", SCHEMA)
        table.create_index("rtime")
        with pytest.raises(CatalogError):
            table.create_index("rtime")

    def test_index_on_unknown_column(self):
        table = Table("r", SCHEMA)
        with pytest.raises(SchemaError):
            table.create_index("missing")

    def test_index_on_returns_none_when_absent(self):
        assert Table("r", SCHEMA).index_on("rtime") is None


class TestCatalog:
    def test_create_and_fetch(self):
        catalog = Catalog()
        catalog.create_table("T1", SCHEMA)
        assert catalog.table("t1").name == "t1"
        assert "T1" in catalog

    def test_duplicate_rejected(self):
        catalog = Catalog()
        catalog.create_table("t", SCHEMA)
        with pytest.raises(CatalogError):
            catalog.create_table("T", SCHEMA)

    def test_missing_table_lists_known(self):
        catalog = Catalog()
        catalog.create_table("known", SCHEMA)
        with pytest.raises(CatalogError, match="known"):
            catalog.table("absent")

    def test_drop(self):
        catalog = Catalog()
        catalog.create_table("t", SCHEMA)
        catalog.drop_table("t")
        assert "t" not in catalog
        with pytest.raises(CatalogError):
            catalog.drop_table("t")

    def test_table_names_sorted(self):
        catalog = Catalog()
        catalog.create_table("zz", SCHEMA)
        catalog.create_table("aa", SCHEMA)
        assert catalog.table_names() == ["aa", "zz"]


class TestReplaceRows:
    def test_swaps_rows_and_returns_count(self):
        table = private_table("r", SCHEMA)
        table.bulk_load([("e1", 1), ("e2", 2), ("e3", 3)])
        assert table.replace_rows([("e9", 9)]) == 1
        assert table.rows == [("e9", 9)]

    def test_bumps_version_once(self):
        table = private_table("r", SCHEMA)
        table.bulk_load([("e1", 1)])
        before = table.version
        table.replace_rows([("e2", 2), ("e3", 3)])
        assert table.version == before + 1

    def test_rebuilds_indexes(self):
        table = private_table("r", SCHEMA)
        table.create_index("rtime")
        table.bulk_load([("e1", 7), ("e2", 3)])
        table.replace_rows([("e3", 5), ("e4", 1)])
        from repro.minidb.index import IndexRange
        index = table.index_on("rtime")
        assert list(index.scan(IndexRange())) == [1, 0]

    def test_only_private_tables_can_be_rewritten(self, tmp_path):
        """A catalog table only grows: neither a memory nor a disk
        database hands out a table with a rewrite method."""
        assert not hasattr(Table, "replace_rows")
        with Database(storage="disk",
                      storage_path=str(tmp_path / "db")) as disk, \
                Database(storage="memory") as memory:
            for db in (disk, memory):
                table = db.create_table("r", SCHEMA)
                assert not hasattr(table, "replace_rows")


class TestColumnarCache:
    def test_cache_reused_while_unchanged(self):
        table = Table("r", SCHEMA)
        table.bulk_load([("e1", 1), ("e2", 2)])
        first = table.columnar()
        assert table.columnar() is first
        assert first == [["e1", "e2"], [1, 2]]

    def test_insert_extends_lazily(self):
        # Appends no longer evict: the cached transpose is kept and the
        # appended tail is transposed on the next columnar() call.
        table = Table("r", SCHEMA)
        table.bulk_load([("e1", 1)])
        first = table.columnar()
        table.insert(("e2", 2))
        assert table.columnar() is first  # same lists, extended in place
        assert first == [["e1", "e2"], [1, 2]]

    def test_bulk_load_extends_and_replace_evicts(self):
        table = private_table("r", SCHEMA)
        table.bulk_load([("e1", 1)])
        first = table.columnar()
        table.bulk_load([("e2", 2)])
        assert table.columnar() is first
        assert first == [["e1", "e2"], [1, 2]]
        table.replace_rows([("e3", 3)])
        assert table._columns is None  # full rewrite still evicts eagerly
        assert table.columnar() == [["e3"], [3]]
