"""The append layer: epochs and incremental structures.

``Table.version`` is split into schema/data epochs, and a catalog table
only grows, so the rows past a reader's remembered count are exactly
what arrived since. ``SortedIndex.insert_many``, the lazily-extending
columnar cache, ``StatsRepository.apply_append`` and
``Database.append`` use that so a trickle of new reads patches warm
state instead of rebuilding it. These tests pin each layer.
"""

import random

from repro.minidb import Database, SqlType, TableSchema
from repro.minidb.index import IndexRange, SortedIndex
from repro.minidb.table import Table, private_table

SCHEMA = TableSchema.of(("epc", SqlType.VARCHAR),
                        ("rtime", SqlType.TIMESTAMP),
                        ("v", SqlType.INTEGER))

ROWS = [(f"e{i % 5}", i * 10, i) for i in range(20)]


def make_table(rows=ROWS):
    table = Table("r", SCHEMA)
    table.bulk_load(rows)
    return table


def make_private_table(rows=ROWS):
    table = private_table("r", SCHEMA)
    table.bulk_load(rows)
    return table


class TestEpochs:
    def test_version_is_epoch_sum_and_monotone(self):
        table = Table("r", SCHEMA)
        assert table.version == 0
        table.insert(("e1", 1, 1))
        assert (table.schema_epoch, table.data_epoch) == (0, 1)
        table.create_index("rtime")
        assert (table.schema_epoch, table.data_epoch) == (1, 1)
        assert table.version == 2
        before = table.version
        table.append_rows([("e2", 2, 2)])
        assert table.version == before + 1
        assert table.schema_epoch == 1  # appends never move the schema

    def test_empty_append_is_a_no_op(self):
        table = make_table()
        epoch = table.data_epoch
        assert table.append_rows([]) == 0
        assert table.data_epoch == epoch

    def test_replace_rows_bumps_data_epoch(self):
        table = make_private_table()
        before = table.data_epoch
        table.replace_rows(ROWS[:5])
        assert table.data_epoch == before + 1

    def test_replace_rows_trusted_skips_coercion(self):
        table = make_private_table()
        table.create_index("rtime")
        rows = [table.rows[3], table.rows[1]]
        epoch = table.data_epoch
        table.replace_rows(rows, coerced=True)
        assert table.rows == rows  # stored as-is, no per-value coercion
        assert table.data_epoch == epoch + 1
        index = table.index_on("rtime")
        assert sorted(index._positions) == [0, 1]  # indexes still rebuilt


class TestIncrementalIndex:
    def entries(self, index):
        return list(zip(index._keys, index._positions))

    def test_insert_many_matches_repeated_insert(self):
        rng = random.Random(5)
        base = [(rng.randint(0, 50), pos) for pos in range(200)]
        fresh = [(rng.randint(0, 50), 200 + pos) for pos in range(60)]
        one_by_one = SortedIndex("a", "k")
        one_by_one.build([key for key, _ in base])
        batched = SortedIndex("b", "k")
        batched.build([key for key, _ in base])
        for key, position in fresh:
            one_by_one.insert(key, position)
        batched.insert_many(fresh)
        assert self.entries(batched) == self.entries(one_by_one)

    def test_insert_many_skips_nulls_and_handles_empty(self):
        index = SortedIndex("a", "k")
        index.build([1, 3])
        index.insert_many([])
        index.insert_many([(None, 2), (2, 3)])
        assert self.entries(index) == [(1, 0), (2, 3), (3, 1)]

    def test_insert_many_into_empty_index(self):
        index = SortedIndex("a", "k")
        index.insert_many([(3, 0), (1, 1), (None, 2)])
        assert self.entries(index) == [(1, 1), (3, 0)]

    def test_append_rows_keeps_index_queries_exact(self):
        table = make_table()
        table.create_index("rtime")
        table.append_rows([("e9", 55, 1), ("e9", 155, 2)])
        index = table.index_on("rtime")
        positions = sorted(index.scan(IndexRange(50, 160)))
        expected = sorted(
            pos for pos, row in enumerate(table.rows)
            if 50 <= row[1] <= 160)
        assert positions == expected
        assert index.count(IndexRange(50, 160)) == len(expected)


class TestColumnarAppend:
    def test_append_extends_cached_transpose_in_place(self):
        table = make_table()
        columns = table.columnar()
        table.append_rows([("e9", 500, 99)])
        assert table.columnar() is columns
        assert columns[0][-1] == "e9" and columns[2][-1] == 99
        assert [len(column) for column in columns] == [21, 21, 21]

    def test_transpose_matches_rebuild_after_appends(self):
        table = make_table()
        table.columnar()
        table.append_rows([("e9", 500, 99), ("e8", 510, 98)])
        table.insert(("e7", 520, 97))
        rebuilt = [list(column) for column in zip(*table.rows)]
        assert table.columnar() == rebuilt


class TestStatsPatch:
    def test_apply_append_updates_counts_and_bounds(self):
        db = Database()
        db.create_table("r", SCHEMA)
        db.load("r", ROWS)
        table = db.table("r")
        stats_version = db.stats.version
        start = len(table.rows)
        table.append_rows([("e9", 5000, None), (None, -3, 7)])
        assert db.stats.apply_append(table, start)
        stats = db.stats.get("r")
        assert stats is not None  # re-stamped fresh, no invalidation
        assert stats.row_count == 22
        assert stats.column("rtime").max_value == 5000
        assert stats.column("rtime").min_value == -3
        assert stats.column("v").null_count == 1
        assert stats.column("epc").null_count == 1
        # Out-of-range values provably add distinct values.
        assert stats.column("rtime").ndv == 20 + 2
        # The repository version did not move: plans stay warm.
        assert db.stats.version == stats_version

    def test_apply_append_declines_without_fresh_entry(self):
        db = Database()
        db.create_table("r", SCHEMA)
        table = db.table("r")
        table.bulk_load(ROWS)  # direct load: no analyze ran
        assert not db.stats.apply_append(table, 0)

    def test_rebase_restamps_after_in_place_splice(self):
        db = Database()
        table = make_private_table()  # only private tables are spliced
        db.stats.analyze(table)
        stats_version = db.stats.version
        table.replace_rows(table.rows[:5], coerced=True)
        assert db.stats.rebase(table)
        stats = db.stats.get(table.name)  # fresh: no eviction, no analyze
        assert stats is not None and stats.row_count == 5
        assert db.stats.version == stats_version  # plans stay warm

    def test_rebase_declines_without_entry(self):
        db = Database()
        db.create_table("r", SCHEMA)
        table = db.table("r")
        table.bulk_load(ROWS)  # never analyzed
        assert not db.stats.rebase(table)


class TestDatabaseAppend:
    def test_append_keeps_prepared_plan_warm(self):
        db = Database()
        db.create_table("r", SCHEMA)
        db.load("r", ROWS)
        db.create_index("r", "rtime")
        sql = "select epc, v from r where rtime <= 100"
        db.execute(sql)
        db.execute(sql)
        hits = db.plan_cache.hits
        db.append("r", [("e9", 50, 99)])
        result = db.execute(sql)
        assert db.plan_cache.hits == hits + 1  # no replan after append
        assert ("e9", 99) in result.rows

    def test_load_still_invalidates_plans(self):
        db = Database()
        db.create_table("r", SCHEMA)
        db.load("r", ROWS)
        sql = "select epc, v from r where rtime <= 100"
        db.execute(sql)
        misses = db.plan_cache.misses
        db.load("r", [("e9", 50, 99)])  # full analyze bumps stats version
        db.execute(sql)
        assert db.plan_cache.misses == misses + 1

    def test_append_accepts_mappings_and_analyzes_when_stale(self):
        db = Database()
        db.create_table("r", SCHEMA)
        table = db.table("r")
        table.bulk_load(ROWS)  # stats never analyzed -> fallback path
        appended = db.append("r", [{"epc": "e9", "rtime": 50, "v": 1}])
        assert appended == 1
        stats = db.stats.get("r")
        assert stats is not None and stats.row_count == 21

    def test_create_index_still_invalidates_plans(self):
        db = Database()
        db.create_table("r", SCHEMA)
        db.load("r", ROWS)
        sql = "select epc, v from r where rtime <= 100"
        db.execute(sql)
        misses = db.plan_cache.misses
        db.create_index("r", "rtime")
        db.execute(sql)  # schema epoch moved: must replan
        assert db.plan_cache.misses == misses + 1
