"""Region-cache patching: decisions, splice identity, determinism.

An append to the reads table does not discard warm cleansing regions:
the cache reads the rows past the region's remembered row count and
re-cleanses only the dirty cluster-key sequences, splicing them over the
cached clean ones. These tests pin the patch-vs-invalidate decision tree
(NULL cluster keys, MODIFY-ed cluster keys, threshold overruns, long
append histories) and the headline guarantee: the patched region and
query results are byte-identical to a cold full recompute, at both
batch settings.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.minidb import Database, SqlType, TableSchema
from repro.minidb.sqlparse import parse_expression
from repro.minidb.types import sort_key
from repro.minidb.plan.physical import IndexRangeScan, SeqScan
from repro.rewrite import DeferredCleansingEngine, engine as engine_module
from repro.rewrite.cache import CacheOptions, CleansingRegionCache
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
    "reader": """
        DEFINE reader ON r CLUSTER BY epc SEQUENCE BY rtime
        AS (A, *B) WHERE B.reader = 'rx' AND B.rtime - A.rtime < 60
        ACTION DELETE A""",
    "retag": """
        DEFINE retag ON r CLUSTER BY epc SEQUENCE BY rtime
        AS (A, B) WHERE A.biz_loc = B.biz_loc AND B.rtime - A.rtime < 40
        ACTION MODIFY B.epc = 'retagged'""",
    # With "kill": a read followed by a 'kill' read, then the 'kill'
    # read itself, are deleted, so one append can erase a sequence.
    "precede": """
        DEFINE precede ON r CLUSTER BY epc SEQUENCE BY rtime
        AS (A, B) WHERE B.reader = 'kill' AND B.rtime - A.rtime < 30
        ACTION DELETE A""",
    "kill": """
        DEFINE kill ON r CLUSTER BY epc SEQUENCE BY rtime
        AS (A) WHERE A.reader = 'kill' ACTION DELETE A""",
}


def base_rows(epcs=12, per_epc=8):
    return [(f"e{e:02d}", e * 7 + t * 25,
             "rx" if (e + t) % 5 == 0 else f"r{t % 3}",
             ["l1", "l2", "la", "lb"][(e + t) % 4])
            for e in range(epcs) for t in range(per_epc)]


def make_engines(rows, rule_names=("reader", "duplicate"),
                 indexes=("rtime",), database=None, **cache_kwargs):
    db = database if database is not None else Database()
    db.create_table("r", SCHEMA)
    db.load("r", rows)
    for column in indexes:
        db.create_index("r", column)
    registry = RuleRegistry()
    for name in rule_names:
        registry.define(RULES[name])
    cached = DeferredCleansingEngine(db, registry,
                                     cache=CacheOptions(**cache_kwargs))
    plain = DeferredCleansingEngine(db, registry)
    return db, cached, plain


SQL = "select epc, rtime, reader, biz_loc from r where rtime <= 250"


def only_entry(engine):
    (entry,) = engine.region_cache._entries.values()
    return entry


class TestPatchDecision:
    def test_small_append_patches_and_recleans_only_dirty(self):
        db, cached, plain = make_engines(base_rows())
        cached.execute(SQL)
        db.append("r", [("e00", 55, "r0", "l1"),    # existing sequence
                        ("e99", 60, "r1", "l2")])   # brand-new sequence
        result, metrics, _ = cached.execute_with_metrics(SQL)
        assert sorted(result.rows) == sorted(plain.execute(SQL).rows)
        assert metrics.cache_patches == 1
        assert metrics.sequences_recleaned == 2  # exactly the dirty ones
        assert cached.region_cache.invalidations == 0

    def test_null_cluster_key_append_invalidates(self):
        db, cached, plain = make_engines(base_rows())
        cached.execute(SQL)
        db.append("r", [(None, 55, "r0", "l1")])

        def canon(rows):
            return sorted(rows, key=lambda row: tuple(
                sort_key(value) for value in row))

        assert canon(cached.execute(SQL).rows) == \
            canon(plain.execute(SQL).rows)
        assert cached.region_cache.patches == 0
        assert cached.region_cache.invalidations == 1
        assert cached.region_cache.stores == 2  # re-materialized

    def test_modified_cluster_key_invalidates(self):
        db, cached, plain = make_engines(base_rows(),
                                         rule_names=("retag",))
        cached.execute(SQL)
        assert only_entry(cached).runs is None  # never patched
        db.append("r", [("e00", 55, "r0", "l1")])
        assert sorted(cached.execute(SQL).rows) == \
            sorted(plain.execute(SQL).rows)
        assert cached.region_cache.patches == 0
        assert cached.region_cache.invalidations == 1

    def test_too_many_dirty_keys_invalidates(self):
        # 3 new keys beside 12 cached sequences dirty 3 / 15 = 0.2 of
        # the patched region: over a 0.15 fraction, so invalidate.
        db, cached, plain = make_engines(base_rows(),
                                         max_patch_fraction=0.15)
        cached.execute(SQL)
        db.append("r", [(f"n{i}", 60 + i, "r0", "l1") for i in range(3)])
        assert sorted(cached.execute(SQL).rows) == \
            sorted(plain.execute(SQL).rows)
        assert cached.region_cache.patches == 0
        assert cached.region_cache.invalidations == 1

    def test_dirty_fraction_at_the_bound_patches(self):
        db, cached, plain = make_engines(base_rows(),
                                         max_patch_fraction=0.2)
        cached.execute(SQL)
        db.append("r", [(f"n{i}", 60 + i, "r0", "l1") for i in range(3)])
        assert sorted(cached.execute(SQL).rows) == \
            sorted(plain.execute(SQL).rows)
        assert cached.region_cache.patches == 1
        assert cached.region_cache.invalidations == 0

    def test_long_append_history_patches_once(self):
        # The rows past the region's row count are the whole history, so
        # any number of appends between two queries is one patch.
        db, cached, plain = make_engines(base_rows())
        cached.execute(SQL)
        table = db.table("r")
        for i in range(257):
            table.insert((f"e{i % 3:02d}", 1000 + i, "r0", "l1"))
        db.analyze("r")
        assert sorted(cached.execute(SQL).rows) == \
            sorted(plain.execute(SQL).rows)
        assert cached.region_cache.patches == 1
        assert cached.region_cache.invalidations == 0

    def test_patch_recomputes_under_entry_ec_not_probe_ec(self):
        # Warm a wide region, append, then probe with a narrower window:
        # the patch must re-cleanse the dirty sequence under the wide ec,
        # or the later wide probe would see a half-narrow region.
        wide = "select epc, rtime, reader, biz_loc from r where rtime <= 250"
        narrow = "select epc, rtime, reader, biz_loc from r where rtime <= 90"
        db, cached, plain = make_engines(base_rows())
        cached.execute(wide)
        db.append("r", [("e00", 55, "r0", "l1"), ("e00", 200, "r1", "l2")])
        assert sorted(cached.execute(narrow).rows) == \
            sorted(plain.execute(narrow).rows)
        assert cached.region_cache.patches == 1
        assert sorted(cached.execute(wide).rows) == \
            sorted(plain.execute(wide).rows)
        assert cached.region_cache.stores == 1  # never re-materialized

    def test_schema_only_staleness_stays_warm(self):
        # An index creation bumps the schema epoch but appends no rows:
        # staleness is keyed on the row count, so the entry is not
        # even considered stale — it serves warm with zero patching and
        # zero re-cleansing.
        db, cached, plain = make_engines(base_rows())
        cached.execute(SQL)
        db.create_index("r", "biz_loc")
        result, metrics, _ = cached.execute_with_metrics(SQL)
        assert sorted(result.rows) == sorted(plain.execute(SQL).rows)
        assert metrics.cache_patches == 0
        assert metrics.sequences_recleaned == 0
        assert cached.region_cache.invalidations == 0
        assert cached.region_cache.stores == 1  # never re-materialized


class TestRegionsArePrivate:
    """A region is derived state: on a disk database it is never
    logged, checkpointed or cataloged."""

    @staticmethod
    def _disk_engines(path):
        return make_engines(base_rows(), indexes=("rtime", "epc"),
                            database=Database(storage="disk",
                                              storage_path=path))

    def test_store_and_patch_log_only_the_append(self, tmp_path):
        db, cached, plain = self._disk_engines(str(tmp_path / "db"))
        try:
            wal, cache = db.storage.wal, cached.region_cache
            catalog_version = db.catalog.version
            before = wal.bytes_written
            cached.execute(SQL)  # cold store
            assert cache.stores == 1
            assert wal.bytes_written == before
            db.append("r", [("e03", 60, "r1", "l1")])
            appended = wal.bytes_written
            assert appended > before
            assert sorted(cached.execute(SQL).rows) == \
                sorted(plain.execute(SQL).rows)
            assert (cache.patches, cache.hits) == (1, 1)
            assert wal.bytes_written == appended
            assert db.catalog.table_names() == ["r"]
            assert db.catalog.version == catalog_version
        finally:
            db.shutdown()

    def test_reopened_directory_holds_only_user_tables(self, tmp_path):
        path = str(tmp_path / "db")
        db, cached, _ = self._disk_engines(path)
        cached.execute(SQL)
        db.append("r", [("e03", 60, "r1", "l1")])
        cached.execute(SQL)
        db.shutdown()
        with Database(storage="disk", storage_path=path) as reopened:
            assert reopened.catalog.table_names() == ["r"]
            registry = RuleRegistry()
            for name in ("reader", "duplicate"):
                registry.define(RULES[name])
            fresh = DeferredCleansingEngine(reopened, registry,
                                            cache=CacheOptions())
            plain = DeferredCleansingEngine(reopened, registry)
            assert sorted(fresh.execute(SQL).rows) == \
                sorted(plain.execute(SQL).rows)
            assert fresh.region_cache.stores == 1


class TestDirectCacheLookup:
    """Unit-level: lookup() with a hand-written patcher."""

    def _db_and_cache(self):
        db = Database()
        db.create_table("r", SCHEMA)
        db.load("r", base_rows())
        cache = CleansingRegionCache(db)
        table = db.table("r")
        ec = (parse_expression("rtime <= 250"),)
        rows = sorted(
            (row for row in table.rows if row[1] <= 250),
            key=lambda row: (row[0], row[1]))
        cache.store(table, ("k",), ec, rows, cluster_key="epc")
        return db, cache, table, ec

    def test_patcher_receives_dirty_values_and_entry(self):
        db, cache, table, ec = self._db_and_cache()
        table.append_rows([("e03", 55, "r0", "l1"),
                           ("e01", 60, "r0", "l1")])
        calls = []

        def patcher(entry, dirty_values):
            calls.append((entry.cluster_key, list(dirty_values)))
            return [row for row in table.rows
                    if row[0] in dirty_values and row[1] <= 250]

        entry = cache.lookup(table, ("k",), ec, patcher=patcher)
        assert entry is not None
        assert calls == [("epc", ["e01", "e03"])]  # sorted dirty keys
        assert cache.patches == 1 and cache.sequences_recleaned == 2

    def test_patched_rows_replace_dirty_runs_in_key_order(self):
        db, cache, table, ec = self._db_and_cache()
        table.append_rows([("e03", 41, "r9", "l9")])

        def patcher(entry, dirty_values):
            return [row for row in sorted(table.rows,
                                          key=lambda r: (r[0], r[1]))
                    if row[0] in dirty_values and row[1] <= 250]

        entry = cache.lookup(table, ("k",), ec, patcher=patcher)
        rows = entry.table.rows
        expected = sorted(
            (row for row in table.rows if row[1] <= 250),
            key=lambda row: (row[0], row[1]))
        assert rows == expected  # splice == full recompute, key order kept

    def test_unsorted_region_declines_patch(self):
        db = Database()
        db.create_table("r", SCHEMA)
        db.load("r", base_rows())
        cache = CleansingRegionCache(db)
        table = db.table("r")
        ec = (parse_expression("rtime <= 250"),)
        rows = [row for row in table.rows if row[1] <= 250]
        rows.reverse()  # NOT sorted by cluster key: no contiguous runs
        cache.store(table, ("k",), ec, rows, cluster_key="epc")
        table.append_rows([("e00", 55, "r0", "l1")])
        assert cache.lookup(table, ("k",), ec,
                            patcher=lambda e, d: []) is None
        assert cache.patches == 0 and cache.invalidations == 1


@pytest.mark.parametrize("batch", [0, 7])
def test_patched_region_byte_identical_to_cold(monkeypatch, batch):
    """Determinism: incremental == full recompute, byte for byte.

    Two engines over the same data history — one queries between appends
    (so its region is patched twice), one only queries at the end (cold
    full cleanse). The materialized regions and the final result rows
    must be identical at the default batch size (``batch=0`` leaves the
    knob unset) and at a small odd one.
    """
    if batch:
        monkeypatch.setenv("REPRO_BATCH_SIZE", str(batch))
    else:
        monkeypatch.delenv("REPRO_BATCH_SIZE", raising=False)

    prefix = base_rows(epcs=30, per_epc=10)
    chunks = [
        [("e00", 53, "r0", "l1"), ("x01", 60, "rx", "l2")],
        [("x01", 95, "r1", "la"), ("e07", 101, "r2", "lb")],
    ]
    sql = "select epc, rtime, reader, biz_loc from r where rtime <= 400"

    db_inc, incremental, _ = make_engines(prefix)
    incremental.execute(sql)
    for chunk in chunks:
        db_inc.append("r", chunk)
        incremental.execute(sql)
    patched_region = list(only_entry(incremental).table.rows)
    patched_rows = incremental.execute(sql).rows
    assert incremental.region_cache.patches == len(chunks)
    assert incremental.region_cache.stores == 1

    db_cold, cold, _ = make_engines(prefix)
    for chunk in chunks:
        db_cold.append("r", chunk)
    cold_rows = cold.execute(sql).rows
    cold_region = list(only_entry(cold).table.rows)

    assert patched_region == cold_region
    assert patched_rows == cold_rows


def patched_and_cold(prefix, chunks, sql=SQL, **engine_kwargs):
    """Two cached engines over the same final rows: one whose region was
    patched once per chunk, and one that cleansed it cold. Hold the
    engines while reading their regions: they keep their databases
    open (a disk database releases its rows when collected)."""
    db_inc, incremental, _ = make_engines(prefix, **engine_kwargs)
    incremental.execute(sql)
    for chunk in chunks:
        db_inc.append("r", chunk)
        incremental.execute(sql)
    db_cold, cold, _ = make_engines(prefix, **engine_kwargs)
    for chunk in chunks:
        db_cold.append("r", chunk)
    cold.execute(sql)
    return incremental, cold


def assert_patched_is_cold(prefix, chunks, **engine_kwargs):
    """The patched region has the cold region's rows, in its order, and
    the run index a fresh store builds. Returns the patched engine."""
    incremental, cold = patched_and_cold(prefix, chunks, **engine_kwargs)
    patched, fresh = only_entry(incremental), only_entry(cold)
    assert incremental.region_cache.patches == len(chunks)
    assert incremental.region_cache.stores == 1
    assert patched.table.rows == fresh.table.rows
    assert list(patched.runs.items()) == list(fresh.runs.items())
    return incremental


class TestSplice:
    def test_dirty_first_and_last_runs(self):
        incremental = assert_patched_is_cold(base_rows(), [
            [("e00", 55, "r0", "l1"), ("e11", 120, "rx", "l2")]])
        keys = list(only_entry(incremental).runs)
        assert keys[0] == "e00" and keys[-1] == "e11"

    def test_new_keys_before_and_after_every_run(self):
        incremental = assert_patched_is_cold(base_rows(), [
            [("a00", 55, "r0", "l1"), ("z99", 60, "r1", "l2")],
            [("a00", 70, "r2", "l1")]])
        keys = list(only_entry(incremental).runs)
        assert keys[0] == "a00" and keys[-1] == "z99"

    def test_sequence_the_rules_now_delete_leaves_the_index(self):
        prefix = base_rows() + [("solo", 100, "r0", "l1")]
        warm, _ = patched_and_cold(prefix, [],
                                   rule_names=("precede", "kill"))
        assert "solo" in only_entry(warm).runs
        incremental = assert_patched_is_cold(
            prefix, [[("solo", 110, "kill", "l1")]],
            rule_names=("precede", "kill"))
        patched = only_entry(incremental)
        assert "solo" not in patched.runs
        assert patched.table.rows
        assert all(row[0] != "solo" for row in patched.table.rows)

    def test_patch_reads_only_the_dirty_sequences(self, monkeypatch):
        # 2 000 source rows, a 20-row delta over 5 sequences: the patch
        # reads those sequences through the keyed scan on epc, nothing
        # else of the source.
        prefix = [(f"e{e:03d}", e + t * 25, f"r{t % 3}", "l1")
                  for e in range(200) for t in range(10)]
        sql = "select epc, rtime, reader, biz_loc from r where rtime <= 900"
        db, cached, plain = make_engines(prefix, indexes=("rtime", "epc"))
        cached.execute(sql)
        delta = [(f"e{e:03d}", 40 * e + t, "r1", "l2")
                 for e in (0, 3, 50, 51, 199) for t in range(4)]
        assert len(db.table("r").rows) >= 100 * len(delta)
        db.append("r", delta)
        expected = sorted(plain.execute(sql).rows)
        plans = []

        def recording(plan):
            plans.append(plan)
            return materialize(plan)

        materialize = engine_module.materialize
        monkeypatch.setattr(engine_module, "materialize", recording)
        assert sorted(cached.execute(sql).rows) == expected
        assert cached.region_cache.patches == 1
        source = db.table("r")
        read = sum(node.actual_rows for plan in plans
                   for node in plan.walk()
                   if isinstance(node, (SeqScan, IndexRangeScan))
                   and node.table is source)
        dirty = {row[0] for row in delta}
        assert read == sum(1 for row in source.rows if row[0] in dirty)


STREAM_EPCS = ("a0", "e00", "e03", "e07", "e11", "m5", "z9")


@given(st.lists(
    st.lists(st.tuples(st.sampled_from(STREAM_EPCS),
                       st.integers(0, 400),
                       st.sampled_from(("r0", "r1", "rx")),
                       st.sampled_from(("l1", "l2", "la"))),
             min_size=1, max_size=5),
    min_size=1, max_size=4))
def test_patched_region_equals_cold_over_append_streams(chunks):
    # Fraction 1.0: every append patches, whatever share it dirties.
    assert_patched_is_cold(base_rows(), chunks, indexes=("rtime", "epc"),
                           max_patch_fraction=1.0)
